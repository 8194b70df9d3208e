package policy

import (
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// kind is how a param's value is spelled.
type kind int

const (
	kindInt      kind = iota // decimal integer in [min, max]
	kindDuration             // Go duration ("500ms") in [min, max] nanoseconds
	kindBool                 // "true" or "false"
	kindHexKey               // 64 hex digits: an AES-256 key
	kindPaths                // comma-separated absolute path prefixes
)

// param declares one key a MiddleBoxSpec's Params may carry. A value that is
// empty reads as unset.
type param struct {
	types []ServiceType // the service types that accept it
	// activeOnly additionally requires an active relay.
	activeOnly bool
	kind       kind
	min, max   int64 // bounds of an int or a duration (nanoseconds)
	required   bool
	// def is the value an unset param reads as; "" when the default is
	// derived from other fields or means "off" (see doc).
	def string
	doc string
}

// relayTypes are the service types that run a relay. Cost-model and relay
// knobs are accepted on all of them, so one cost regime can be applied to a
// whole chain.
var relayTypes = []ServiceType{TypeMonitor, TypeEncryption, TypeReplication, TypeReplicate}

// params is every policy parameter; Validate refuses any key not listed here,
// a key on a service type it does not list, and a value outside its kind.
var params = map[string]param{
	"key": {types: []ServiceType{TypeEncryption}, kind: kindHexKey, required: true,
		doc: "AES-256 volume key"},
	"replicas": {types: []ServiceType{TypeReplication}, kind: kindInt, min: 2, max: 8, required: true,
		doc: "total copies of the volume, primary included"},
	"watch": {types: []ServiceType{TypeMonitor}, kind: kindPaths,
		doc: "path prefixes whose accesses raise alerts; unset watches nothing"},
	"replicaBackends": {types: []ServiceType{TypeReplicate}, kind: kindInt, min: 2, max: 4, required: true,
		doc: "content-addressed backend volumes the writes fan out to"},
	"replicaQuorum": {types: []ServiceType{TypeReplicate}, kind: kindInt, min: 1, max: 4,
		doc: "backend acks a write waits for, at most replicaBackends; unset is a strict majority"},
	"scrubInterval": {types: []ServiceType{TypeReplicate}, kind: kindDuration, max: int64(24 * time.Hour), def: "1s",
		doc: "background integrity-scrub pass interval; 0 disables scrubbing"},
	"copyThreads": {types: relayTypes, kind: kindInt, max: 256,
		doc: "concurrent interception copy paths; unset is the VM's vCPUs, 0 unbounded"},
	"interceptPerBatchNs": {types: relayTypes, kind: kindInt, max: int64(time.Second),
		doc: "modelled active-relay copy cost per batch; unset keeps the relay's calibrated cost"},
	"interceptBatchBytes": {types: relayTypes, kind: kindInt, min: 1, max: 16 << 20,
		doc: "active-relay copy batch size; unset keeps the relay's calibrated size"},
	"cipherCostNsPerKiB": {types: relayTypes, kind: kindInt, max: int64(time.Second),
		doc: "modelled cipher cost per KiB, read by encryption; unset keeps its calibrated cost"},
	"forwardConns": {types: relayTypes, kind: kindInt, min: 1, max: 8, def: "1",
		doc: "MC/S connections the relay's downstream leg spreads commands across"},
	"durableJournal": {types: relayTypes, activeOnly: true, kind: kindBool, def: "false",
		doc: "back the write journal with an on-disk WAL that survives a middle-box crash"},
	"journalFsyncWindow": {types: relayTypes, activeOnly: true, kind: kindDuration, max: int64(time.Second), def: "0",
		doc: "durable journal group-commit window; 0 fsyncs every append"},
}

// check reports why v is not a value of the param's kind, or nil.
func (p *param) check(v string) error {
	switch p.kind {
	case kindInt:
		if n, err := strconv.ParseInt(v, 10, 64); err != nil || n < p.min || n > p.max {
			return fmt.Errorf("want an integer in [%d,%d]", p.min, p.max)
		}
	case kindDuration:
		if d, err := time.ParseDuration(v); err != nil || int64(d) < p.min || int64(d) > p.max {
			return fmt.Errorf("want a duration in [%v,%v]", time.Duration(p.min), time.Duration(p.max))
		}
	case kindBool:
		if v != "true" && v != "false" {
			return errors.New("want true or false")
		}
	case kindHexKey:
		if raw, err := hex.DecodeString(v); err != nil || len(raw) != 32 {
			return errors.New("want 64 hex digits (an AES-256 key)")
		}
	case kindPaths:
		for _, prefix := range strings.Split(v, ",") {
			if !strings.HasPrefix(strings.TrimSpace(prefix), "/") {
				return errors.New("want comma-separated absolute path prefixes")
			}
		}
	}
	return nil
}

// validateParams checks every key and value of the spec against the table.
func (m *MiddleBoxSpec) validateParams() error {
	for name, v := range m.Params {
		p, ok := params[name]
		switch {
		case !ok:
			return fmt.Errorf("policy: middle-box %q: unknown param %q", m.Name, name)
		case v == "":
		case !slices.Contains(p.types, m.Type):
			return fmt.Errorf("policy: middle-box %q: param %s does not apply to type %s", m.Name, name, m.Type)
		case p.activeOnly && m.EffectiveMode() != ModeActive:
			return fmt.Errorf("policy: middle-box %q: param %s requires an active relay", m.Name, name)
		default:
			if err := p.check(v); err != nil {
				return fmt.Errorf("policy: middle-box %q: param %s=%q: %w", m.Name, name, v, err)
			}
		}
	}
	for name, p := range params {
		if p.required && m.Params[name] == "" && slices.Contains(p.types, m.Type) {
			return fmt.Errorf("policy: middle-box %q: type %s requires param %s (%s): %v", m.Name, m.Type, name, p.doc, p.check(""))
		}
	}
	if m.Type == TypeReplicate && m.ReplicaQuorum() > m.ReplicaBackends() {
		return fmt.Errorf("policy: middle-box %q: replicaQuorum %d exceeds replicaBackends %d", m.Name, m.ReplicaQuorum(), m.ReplicaBackends())
	}
	return nil
}

// value returns the spec's setting of a table param, or the table default.
func (m *MiddleBoxSpec) value(name string) string {
	if v := m.Params[name]; v != "" {
		return v
	}
	return params[name].def
}

// intValue reads an integer param; ok is false when it is unset and has no
// default.
func (m *MiddleBoxSpec) intValue(name string) (int, bool) {
	n, err := strconv.Atoi(m.value(name))
	return n, err == nil
}

// durationValue reads a duration param; unset without a default reads 0.
func (m *MiddleBoxSpec) durationValue(name string) time.Duration {
	d, _ := time.ParseDuration(m.value(name))
	return d
}

// Key decodes the encryption key parameter.
func (m *MiddleBoxSpec) Key() ([]byte, error) {
	raw, err := hex.DecodeString(m.value("key"))
	if err != nil {
		return nil, fmt.Errorf("policy: middle-box %q key: %w", m.Name, err)
	}
	return raw, nil
}

// Replicas returns the replication factor parameter.
func (m *MiddleBoxSpec) Replicas() int {
	n, _ := m.intValue("replicas")
	return n
}

// WatchPrefixes returns the monitor's watched path prefixes.
func (m *MiddleBoxSpec) WatchPrefixes() []string {
	var prefixes []string
	for _, prefix := range strings.Split(m.value("watch"), ",") {
		if prefix = strings.TrimSpace(prefix); prefix != "" {
			prefixes = append(prefixes, prefix)
		}
	}
	return prefixes
}

// ReplicaBackends returns the content-addressed backend count for a
// replicate middle-box.
func (m *MiddleBoxSpec) ReplicaBackends() int {
	n, _ := m.intValue("replicaBackends")
	return n
}

// ReplicaQuorum returns how many backend acknowledgements a write waits
// for: the param, or a strict majority of the backends.
func (m *MiddleBoxSpec) ReplicaQuorum() int {
	if q, ok := m.intValue("replicaQuorum"); ok {
		return q
	}
	return m.ReplicaBackends()/2 + 1
}

// ScrubInterval returns the background scrubber's pass interval (0
// disables scrubbing).
func (m *MiddleBoxSpec) ScrubInterval() time.Duration { return m.durationValue("scrubInterval") }

// CopyThreads returns the relay's concurrent copy-path bound: the param, else
// the VM's vCPU count, else 0 (unbounded).
func (m *MiddleBoxSpec) CopyThreads() int {
	if n, ok := m.intValue("copyThreads"); ok {
		return n
	}
	return max(m.VCPUs, 0)
}

// InterceptPerBatch returns the active relay's modelled copy cost per batch;
// ok is false when the policy leaves the relay's calibrated cost.
func (m *MiddleBoxSpec) InterceptPerBatch() (time.Duration, bool) {
	n, ok := m.intValue("interceptPerBatchNs")
	return time.Duration(n), ok
}

// InterceptBatchBytes returns the active relay's copy batch size; ok is false
// when the policy leaves the relay's calibrated size.
func (m *MiddleBoxSpec) InterceptBatchBytes() (int, bool) {
	return m.intValue("interceptBatchBytes")
}

// CipherCostPerKiB returns the encryption service's modelled cost per KiB;
// ok is false when the policy leaves the calibrated cost.
func (m *MiddleBoxSpec) CipherCostPerKiB() (time.Duration, bool) {
	n, ok := m.intValue("cipherCostNsPerKiB")
	return time.Duration(n), ok
}

// ForwardConns returns how many MC/S connections the relay's downstream leg
// spreads commands across.
func (m *MiddleBoxSpec) ForwardConns() int {
	n, _ := m.intValue("forwardConns")
	return n
}

// DurableJournal reports whether the relay's write journal is a crash-durable
// WAL.
func (m *MiddleBoxSpec) DurableJournal() bool { return m.value("durableJournal") == "true" }

// JournalFsyncWindow returns the durable journal's group-commit window (0
// fsyncs every append).
func (m *MiddleBoxSpec) JournalFsyncWindow() time.Duration {
	return m.durationValue("journalFsyncWindow")
}
