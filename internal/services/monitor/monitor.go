// Package monitor implements the storage access monitor case study
// (Section V-B1): a tenant-defined middle-box service that reconstructs
// high-level file operations from intercepted block traffic and logs or
// alerts on accesses to watched files and directories. Its engine runs the
// paper's three phases — Classification (which block class was touched),
// Update (fold metadata writes into the live system view), and Analysis
// (match reconstructed operations against tenant watch rules).
package monitor

import (
	"strings"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/extfs"
	"repro/internal/middlebox"
	"repro/internal/semantic"
)

// Alert reports a watched access.
type Alert struct {
	// Rule is the watch prefix that fired.
	Rule string
	// Event is the reconstructed operation.
	Event semantic.Event
}

// Monitor is the monitoring engine.
type Monitor struct {
	rec *semantic.Reconstructor
	det detector

	mu      sync.Mutex
	watches []string
	alerts  []Alert
	onAlert func(Alert)
}

// New builds a monitor from the initial system view supplied by the
// platform at volume-attach time.
func New(view *extfs.View) *Monitor {
	m := &Monitor{rec: semantic.New(view)}
	m.rec.OnEvent(m.analyze)
	return m
}

// Reconstructor exposes the underlying semantics engine.
func (m *Monitor) Reconstructor() *semantic.Reconstructor { return m.rec }

// Watch adds an alert rule: any reconstructed operation whose path starts
// with prefix raises an alert.
func (m *Monitor) Watch(prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.watches = append(m.watches, prefix)
}

// OnAlert registers a callback invoked for each alert (the tenant's
// "directly notified on any access" option).
func (m *Monitor) OnAlert(fn func(Alert)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onAlert = fn
}

// Alerts returns the alerts raised so far.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// Log returns the full reconstructed access log (the tenant's periodic
// retrieval option).
func (m *Monitor) Log() []semantic.Event {
	return m.rec.Events()
}

// analyze is the Analysis phase.
func (m *Monitor) analyze(e semantic.Event) {
	m.det.observe(e)
	m.mu.Lock()
	var fired []Alert
	for _, w := range m.watches {
		if strings.HasPrefix(e.Path, w) || (e.OldPath != "" && strings.HasPrefix(e.OldPath, w)) {
			fired = append(fired, Alert{Rule: w, Event: e})
		}
	}
	m.alerts = append(m.alerts, fired...)
	cb := m.onAlert
	m.mu.Unlock()
	if cb != nil {
		for _, a := range fired {
			cb(a)
		}
	}
}

// Service returns the middle-box service factory installing the monitor's
// tap on the relay's device stack.
func (m *Monitor) Service() middlebox.ServiceFactory {
	return func(backend blockdev.Device) (blockdev.Device, error) {
		return &tapDevice{dev: backend, mon: m}, nil
	}
}

// tapDevice feeds every access through the reconstructor.
type tapDevice struct {
	dev blockdev.Device
	mon *Monitor
}

var _ blockdev.Device = (*tapDevice)(nil)

func (d *tapDevice) BlockSize() int { return d.dev.BlockSize() }
func (d *tapDevice) Blocks() uint64 { return d.dev.Blocks() }

func (d *tapDevice) ReadAt(p []byte, lba uint64) error {
	if err := d.dev.ReadAt(p, lba); err != nil {
		return err
	}
	d.mon.rec.OnAccess(false, lba, nil, len(p))
	return nil
}

func (d *tapDevice) WriteAt(p []byte, lba uint64) error {
	if err := d.dev.WriteAt(p, lba); err != nil {
		return err
	}
	d.mon.rec.OnAccess(true, lba, p, len(p))
	return nil
}

func (d *tapDevice) Flush() error { return d.dev.Flush() }
func (d *tapDevice) Close() error { return d.dev.Close() }
