package policy

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/xerr"
)

// FuzzParsePolicy: policy JSON is tenant-written. Parse never panics, every
// refusal is xerr.Terminal, an accepted policy survives json.Marshal and a
// second Parse unchanged, and every typed accessor runs on it.
func FuzzParsePolicy(f *testing.F) {
	valid, err := json.Marshal(validPolicy())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{nope"))
	f.Add([]byte(`{"tenant":""}`))
	f.Add([]byte(`{"tenant": "t", "middleboxes": [{"name": "b", "type": "replicate", "params": {"replicaBackends": "3", "replicaQuorum": "2", "scrubInterval": "250ms"}}],
		"volumes": [{"vm": "vm1", "volume": "vol1", "chain": ["b"]}]}`))
	f.Add([]byte(`{"tenant": "t", "middleboxes": [{"name": "b", "type": "encryption", "minInstances": 2, "maxInstances": 4, "params": {"key": "` + goodKey + `", "copyThreads": "4", "interceptPerBatchNs": "100", "interceptBatchBytes": "4096", "cipherCostNsPerKiB": "500", "forwardConns": "2", "durableJournal": "true"}}],
		"volumes": [{"vm": "vm1", "volume": "vol1", "chain": ["b"]}]}`))
	f.Add([]byte(`{"tenant": "t", "middleboxes": [{"name": "m", "type": "access-monitor", "params": {"watch": "/etc, /home"}}],
		"volumes": [{"vm": "vm1", "volume": "vol1", "chain": ["m"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		p, err := Parse(data)
		if err != nil {
			if !xerr.IsTerminal(err) {
				t.Fatalf("Parse error %q is %v, want terminal", err, xerr.Classify(err))
			}
			return
		}
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("Marshal of an accepted policy: %v", err)
		}
		q, err := Parse(again)
		if err != nil {
			t.Fatalf("re-Parse of %s: %v", again, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("policy changed through Marshal and Parse:\n%+v\n%+v", p, q)
		}
		for i := range p.MiddleBoxes {
			mb := &p.MiddleBoxes[i]
			_, _ = mb.Key()
			_ = mb.Replicas()
			_ = mb.ReplicaBackends()
			_ = mb.ReplicaQuorum()
			_ = mb.ScrubInterval()
			_ = mb.CopyThreads()
			_, _ = mb.InterceptPerBatch()
			_, _ = mb.InterceptBatchBytes()
			_, _ = mb.CipherCostPerKiB()
			_ = mb.ForwardConns()
			_ = mb.WatchPrefixes()
			_ = mb.DurableJournal()
		}
	})
}

// TestParseEmptyParamsIsNone (a FuzzParsePolicy find, corpus
// testdata/fuzz/FuzzParsePolicy/empty-params): "params": {} parses as no
// params, so an accepted policy is the same value after json.Marshal, which
// omits an empty map, and a second Parse.
func TestParseEmptyParamsIsNone(t *testing.T) {
	p, err := Parse([]byte(`{"tenant":"t","middleboxes":[{"name":"f","type":"forward","params":{}}],"volumes":[{"vm":"v","volume":"x","chain":["f"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.MiddleBoxes[0].Params != nil {
		t.Errorf("params {} parsed as %#v, want nil", p.MiddleBoxes[0].Params)
	}
}

// TestParseErrorsAreTerminal: a malformed document and a refused policy are
// both xerr.Terminal, with the messages unchanged.
func TestParseErrorsAreTerminal(t *testing.T) {
	for doc, want := range map[string]string{
		"{nope":          "policy: parse: invalid character 'n' looking for beginning of object key string",
		`{"tenant":""}`:  "policy: tenant name required",
		`{"tenant":"t"}`: "policy: at least one volume binding required",
	} {
		_, err := Parse([]byte(doc))
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%s) = %v, want %q", doc, err, want)
		}
		if !xerr.IsTerminal(err) {
			t.Errorf("Parse(%s): error class %v, want terminal", doc, xerr.Classify(err))
		}
	}
}
