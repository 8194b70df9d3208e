package policy

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// paramCase states one table entry independently of the table: values it
// must accept and refuse, one set value and its typed reading, and the
// reading when unset (ignored for required params).
type paramCase struct {
	valid, invalid []string
	set            [2]string // value, reading
	unset          string
	read           func(*MiddleBoxSpec) string
}

var paramCases = map[string]paramCase{
	"key": {
		valid: []string{goodKey}, invalid: []string{"abc", goodKey + "00", strings.Repeat("zz", 32)},
		set:  [2]string{goodKey, goodKey},
		read: func(m *MiddleBoxSpec) string { k, _ := m.Key(); return hex.EncodeToString(k) },
	},
	"replicas": {
		valid: []string{"2", "8"}, invalid: []string{"1", "9", "three"},
		set:  [2]string{"4", "4"},
		read: func(m *MiddleBoxSpec) string { return strconv.Itoa(m.Replicas()) },
	},
	"watch": {
		valid: []string{"/", "/etc,/bin", " /a , /b"}, invalid: []string{"etc", "/a,,/b", "/a,b"},
		set:  [2]string{" /a , /b", "/a|/b"},
		read: func(m *MiddleBoxSpec) string { return strings.Join(m.WatchPrefixes(), "|") },
	},
	"replicaBackends": {
		valid: []string{"2", "4"}, invalid: []string{"1", "5", "x"},
		set:  [2]string{"4", "4"},
		read: func(m *MiddleBoxSpec) string { return strconv.Itoa(m.ReplicaBackends()) },
	},
	"replicaQuorum": { // the base replicate spec has 3 backends
		valid: []string{"1", "3"}, invalid: []string{"0", "4", "x"},
		set: [2]string{"3", "3"}, unset: "2",
		read: func(m *MiddleBoxSpec) string { return strconv.Itoa(m.ReplicaQuorum()) },
	},
	"scrubInterval": {
		valid: []string{"0", "500ms", "24h"}, invalid: []string{"-1s", "1", "25h", "soon"},
		set: [2]string{"500ms", "500ms"}, unset: "1s",
		read: func(m *MiddleBoxSpec) string { return m.ScrubInterval().String() },
	},
	"copyThreads": { // the base spec has 2 vCPUs
		valid: []string{"0", "1", "256"}, invalid: []string{"-1", "x", "257"},
		set: [2]string{"0", "0"}, unset: "2",
		read: func(m *MiddleBoxSpec) string { return strconv.Itoa(m.CopyThreads()) },
	},
	"interceptPerBatchNs": {
		valid: []string{"0", "8000"}, invalid: []string{"-1", "1.5", "1000000001"},
		set: [2]string{"8000", "8µs true"}, unset: "0s false",
		read: func(m *MiddleBoxSpec) string { return fmt.Sprint(m.InterceptPerBatch()) },
	},
	"interceptBatchBytes": {
		valid: []string{"1", "4096"}, invalid: []string{"0", "x", "16777217"},
		set: [2]string{"4096", "4096 true"}, unset: "0 false",
		read: func(m *MiddleBoxSpec) string { return fmt.Sprint(m.InterceptBatchBytes()) },
	},
	"cipherCostNsPerKiB": {
		valid: []string{"0", "1000000"}, invalid: []string{"-1", "abc"},
		set: [2]string{"0", "0s true"}, unset: "0s false",
		read: func(m *MiddleBoxSpec) string { return fmt.Sprint(m.CipherCostPerKiB()) },
	},
	"forwardConns": {
		valid: []string{"1", "8"}, invalid: []string{"0", "9"},
		set: [2]string{"2", "2"}, unset: "1",
		read: func(m *MiddleBoxSpec) string { return strconv.Itoa(m.ForwardConns()) },
	},
	"durableJournal": {
		valid: []string{"true", "false"}, invalid: []string{"yes", "1", "TRUE"},
		set: [2]string{"true", "true"}, unset: "false",
		read: func(m *MiddleBoxSpec) string { return strconv.FormatBool(m.DurableJournal()) },
	},
	"journalFsyncWindow": {
		valid: []string{"0", "1ms", "1s"}, invalid: []string{"-1ms", "2s", "x"},
		set: [2]string{"1ms", "1ms"}, unset: "0s",
		read: func(m *MiddleBoxSpec) string { return m.JournalFsyncWindow().String() },
	},
}

var allTypes = []ServiceType{TypeMonitor, TypeEncryption, TypeReplication, TypeForward, TypeReplicate}

// baseSpec is a valid spec of type t: its required params set, two vCPUs.
func baseSpec(t ServiceType) MiddleBoxSpec {
	kv := map[string]string{}
	switch t {
	case TypeEncryption:
		kv["key"] = goodKey
	case TypeReplication:
		kv["replicas"] = "3"
	case TypeReplicate:
		kv["replicaBackends"] = "3"
	}
	return MiddleBoxSpec{Name: "box", Type: t, VCPUs: 2, Params: kv}
}

// validateOne validates a policy deploying spec alone.
func validateOne(spec MiddleBoxSpec) error {
	p := &Policy{Tenant: "t", MiddleBoxes: []MiddleBoxSpec{spec},
		Volumes: []VolumeBinding{{VM: "vm1", Volume: "vol1", Chain: []string{spec.Name}}}}
	return p.Validate()
}

// TestParamTable checks every table entry against its case: valid values
// pass, invalid ones fail naming the key, a set value reads back typed, an
// unset one reads its default (or fails when required), and a type the
// entry does not list refuses it. It also requires the param sets the
// repository's benchmark deploys and every example policy to validate.
func TestParamTable(t *testing.T) {
	for name := range paramCases {
		if _, ok := params[name]; !ok {
			t.Errorf("case %s names no table param", name)
		}
	}
	for name, p := range params {
		c, ok := paramCases[name]
		if !ok {
			t.Errorf("table param %s has no case", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			mustFail := func(spec MiddleBoxSpec, what string) {
				t.Helper()
				err := validateOne(spec)
				if err == nil {
					t.Errorf("%s on %s accepted", what, spec.Type)
				} else if !strings.Contains(err.Error(), name) {
					t.Errorf("%s on %s: error %q does not name the param", what, spec.Type, err)
				}
			}
			for _, typ := range allTypes {
				if slices.Contains(p.types, typ) {
					continue
				}
				spec := baseSpec(typ)
				spec.Params[name] = c.valid[0]
				mustFail(spec, "misplaced "+c.valid[0])
			}
			for _, typ := range p.types {
				for _, v := range c.valid {
					spec := baseSpec(typ)
					spec.Params[name] = v
					if err := validateOne(spec); err != nil {
						t.Errorf("valid %q on %s refused: %v", v, typ, err)
					}
				}
				for _, v := range c.invalid {
					spec := baseSpec(typ)
					spec.Params[name] = v
					mustFail(spec, fmt.Sprintf("invalid %q", v))
				}
				spec := baseSpec(typ)
				spec.Params[name] = c.set[0]
				if got := c.read(&spec); got != c.set[1] {
					t.Errorf("%q on %s reads %q, want %q", c.set[0], typ, got, c.set[1])
				}
				delete(spec.Params, name)
				if p.required {
					mustFail(spec, "omission")
				} else if got := c.read(&spec); got != c.unset {
					t.Errorf("unset on %s reads %q, want %q", typ, got, c.unset)
				}
			}
		})
	}

	t.Run("bench", func(t *testing.T) {
		zero := func(extra map[string]string) map[string]string {
			p := map[string]string{"interceptPerBatchNs": "0", "cipherCostNsPerKiB": "0"}
			for k, v := range extra {
				p[k] = v
			}
			return p
		}
		for _, spec := range []MiddleBoxSpec{
			{Name: "mon", Type: TypeMonitor, Params: zero(nil)},
			{Name: "rpl", Type: TypeReplicate, Params: zero(map[string]string{"replicaBackends": "3", "scrubInterval": "0"})},
			{Name: "encp", Type: TypeEncryption, Mode: ModePassive, Params: zero(map[string]string{"key": goodKey})},
			{Name: "enca", Type: TypeEncryption, Mode: ModeActive, Params: zero(map[string]string{"key": goodKey})},
			{Name: "encw", Type: TypeEncryption, Mode: ModeActive, Params: zero(map[string]string{"key": goodKey, "durableJournal": "true"})},
			{Name: "monw", Type: TypeMonitor, Params: map[string]string{"watch": "/mnt/box"}},
			{Name: "encf", Type: TypeEncryption, Mode: ModeActive, Params: map[string]string{"key": goodKey, "forwardConns": "2"}},
		} {
			if err := validateOne(spec); err != nil {
				t.Errorf("bench box %s refused: %v", spec.Name, err)
			}
		}
	})

	t.Run("examples", func(t *testing.T) {
		files, err := filepath.Glob("../../examples/policies/*.json")
		if err != nil || len(files) == 0 {
			t.Fatalf("no example policies found (%v)", err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Parse(data); err != nil {
				t.Errorf("%s: %v", f, err)
			}
		}
	})
}

// TestParseRejectsBadParams: malformed values, unknown keys and keys on a
// type or mode that does not read them fail at Parse, before anything is
// provisioned.
func TestParseRejectsBadParams(t *testing.T) {
	tests := []struct {
		name, box, want string
	}{
		{"copyThreads not a number", `"type": "encryption", "params": {"key": "` + goodKey + `", "copyThreads": "x"}`, "copyThreads"},
		{"negative intercept cost", `"type": "encryption", "params": {"key": "` + goodKey + `", "interceptPerBatchNs": "-1"}`, "interceptPerBatchNs"},
		{"cipher cost not a number", `"type": "encryption", "params": {"key": "` + goodKey + `", "cipherCostNsPerKiB": "abc"}`, "cipherCostNsPerKiB"},
		{"relative watch path", `"type": "access-monitor", "params": {"watch": "etc"}`, "watch"},
		{"unknown key", `"type": "encryption", "params": {"key": "` + goodKey + `", "durablejournal": "true"}`, "durablejournal"},
		{"watch on encryption", `"type": "encryption", "params": {"key": "` + goodKey + `", "watch": "/etc"}`, "watch"},
		{"replicas on replicate", `"type": "replicate", "params": {"replicaBackends": "3", "replicas": "3"}`, "replicas"},
		{"fsync window on passive", `"type": "encryption", "mode": "passive", "params": {"key": "` + goodKey + `", "journalFsyncWindow": "1ms"}`, "journalFsyncWindow"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			doc := `{"tenant": "t", "middleboxes": [{"name": "b", ` + tt.box + `}],
				"volumes": [{"vm": "vm1", "volume": "vol1", "chain": ["b"]}]}`
			_, err := Parse([]byte(doc))
			if err == nil {
				t.Fatal("Parse accepted the policy")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}
