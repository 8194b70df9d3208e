package monitor

import (
	"strings"
	"sync"

	"repro/internal/semantic"
)

// Signature is a known-malware access pattern: a set of path fragments
// that, once all observed on one volume, identify the malware. Section
// V-B1: "the revealed file access patterns of malware can then be used by
// the middle-box for future detection of the same malware."
type Signature struct {
	// Name identifies the malware (e.g. "HEUR:Backdoor.Linux.Ganiw.a").
	Name string
	// Fragments are path substrings; the signature fires when every
	// fragment has been seen in a reconstructed write/create/rename event.
	Fragments []string
}

// SignatureMatch reports a completed signature.
type SignatureMatch struct {
	Signature string
	// Evidence maps each fragment to the first event path that matched it.
	Evidence map[string]string
}

// signatureState tracks per-signature progress.
type signatureState struct {
	sig      Signature
	matched  map[string]string // fragment -> first matching path
	reported bool
}

// detector evaluates signatures against the event stream.
type detector struct {
	mu      sync.Mutex
	states  []*signatureState
	matches []SignatureMatch
}

// AddSignature registers a malware signature on the monitor.
func (m *Monitor) AddSignature(sig Signature) {
	if len(sig.Fragments) == 0 {
		return
	}
	m.det.mu.Lock()
	defer m.det.mu.Unlock()
	m.det.states = append(m.det.states, &signatureState{
		sig:     sig,
		matched: make(map[string]string, len(sig.Fragments)),
	})
}

// SignatureMatches returns the signatures detected so far.
func (m *Monitor) SignatureMatches() []SignatureMatch {
	m.det.mu.Lock()
	defer m.det.mu.Unlock()
	return append([]SignatureMatch(nil), m.det.matches...)
}

// observe feeds one reconstructed event into the detector. Only mutating
// namespace/data operations count as evidence (reads of system files are
// benign).
func (d *detector) observe(e semantic.Event) {
	switch e.Type {
	case semantic.EvWrite, semantic.EvCreate, semantic.EvRename:
	default:
		return
	}
	d.mu.Lock()
	var fired []SignatureMatch
	for _, st := range d.states {
		if st.reported {
			continue
		}
		for _, frag := range st.sig.Fragments {
			if _, done := st.matched[frag]; done {
				continue
			}
			if strings.Contains(e.Path, frag) {
				st.matched[frag] = e.Path
			}
		}
		if len(st.matched) == len(st.sig.Fragments) {
			st.reported = true
			evidence := make(map[string]string, len(st.matched))
			for k, v := range st.matched {
				evidence[k] = v
			}
			fired = append(fired, SignatureMatch{Signature: st.sig.Name, Evidence: evidence})
		}
	}
	d.matches = append(d.matches, fired...)
	d.mu.Unlock()
}

// GaniwSignature is the Table III backdoor's installation footprint,
// expressed as a detection signature.
func GaniwSignature() Signature {
	return Signature{
		Name: "HEUR:Backdoor.Linux.Ganiw.a",
		Fragments: []string{
			"/etc/init.d/DbSecuritySpt",
			"S97DbSecuritySpt",
			"/usr/bin/bsd-port/getty",
			"/etc/init.d/selinux",
		},
	}
}
