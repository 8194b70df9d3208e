package splice

import (
	"fmt"
	"sync"
)

// Binding is one attributed storage connection: the mapping chain
// VM -> virtual device (IQN) -> TCP source port that Section III-A's
// connection attribution assembles from the hypervisor's attachment records
// and the modified iSCSI login session.
type Binding struct {
	// VM names the tenant VM owning the connection.
	VM string
	// VolumeIQN is the virtual block device attached to the VM.
	VolumeIQN string
	// SourcePort is the TCP source port of the iSCSI connection (0 until
	// the login exposes it).
	SourcePort int
}

// String renders the binding.
func (b Binding) String() string {
	return fmt.Sprintf("%s <-> %s (port %d)", b.VM, b.VolumeIQN, b.SourcePort)
}

// Attributions is the platform's connection attribution table.
type Attributions struct {
	mu    sync.Mutex
	byIQN map[string]*Binding
}

// NewAttributions returns an empty table.
func NewAttributions() *Attributions {
	return &Attributions{byIQN: make(map[string]*Binding)}
}

// RecordAttachment registers the hypervisor-side half: VM <-> IQN. It is
// called when the cloud attaches a virtual block device to a VM.
func (a *Attributions) RecordAttachment(vm, iqn string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.byIQN[iqn]
	if !ok {
		b = &Binding{VolumeIQN: iqn}
		a.byIQN[iqn] = b
	}
	b.VM = vm
}

// RecordLogin registers the connection-side half: IQN <-> source port, as
// exposed by the modified iSCSI Login Session code.
func (a *Attributions) RecordLogin(iqn string, sourcePort int) {
	if sourcePort == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.byIQN[iqn]
	if !ok {
		b = &Binding{VolumeIQN: iqn}
		a.byIQN[iqn] = b
	}
	b.SourcePort = sourcePort
}

// RemoveAttachment drops the binding for an IQN (volume detach).
func (a *Attributions) RemoveAttachment(iqn string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.byIQN, iqn)
}

// ByIQN returns the binding for a volume, if known.
func (a *Attributions) ByIQN(iqn string) (Binding, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b, ok := a.byIQN[iqn]; ok {
		return *b, true
	}
	return Binding{}, false
}
