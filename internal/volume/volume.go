// Package volume implements the block storage service of the mini-cloud —
// the OpenStack Cinder analogue. It carves thin-provisioned volumes out of
// the storage host, exports each under its own IQN through an iSCSI target
// server on the storage network, and tracks attachment state.
package volume

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/target"
)

// Status of a volume.
type Status string

// Volume states.
const (
	StatusAvailable Status = "available"
	StatusAttached  Status = "in-use"
)

// Common errors.
var (
	ErrNotFound    = errors.New("volume: not found")
	ErrInUse       = errors.New("volume: in use")
	ErrNotAttached = errors.New("volume: not attached")
)

// Volume is one provisioned block volume.
type Volume struct {
	ID         string
	Name       string
	SizeBytes  uint64
	IQN        string
	Status     Status
	AttachedTo string

	dev   blockdev.Device
	fault *blockdev.FaultDisk
	mem   *blockdev.MemDisk
}

// Device exposes the backing device (provider-side access, used by the
// platform to dump file-system views and by failure injection).
func (v *Volume) Device() blockdev.Device { return v.dev }

// InjectFault fails the volume's medium with err (Figure 13's injected
// replica error).
func (v *Volume) InjectFault(err error) { v.fault.Trip(err) }

// HealFault clears an injected fault so the volume serves I/O again.
func (v *Volume) HealFault() { v.fault.Heal() }

// Service is the cloud's volume manager.
type Service struct {
	iqnPrefix   string
	readModel   blockdev.ServiceModel
	writeModel  blockdev.ServiceModel
	concurrency int
	blockSize   int

	mu      sync.Mutex
	volumes map[string]*Volume
	nextID  int

	srv  *target.Server
	addr netsim.Addr
}

// Config for a volume service.
type Config struct {
	// IQNPrefix prefixes generated target names (a sane default applies).
	IQNPrefix string
	// DiskRead / DiskWrite are the medium service-time models applied to
	// every volume (reads typically miss to the medium; writes land in the
	// target's write cache).
	DiskRead  blockdev.ServiceModel
	DiskWrite blockdev.ServiceModel
	// DiskConcurrency bounds concurrent medium accesses per volume
	// (0 = unlimited).
	DiskConcurrency int
	// BlockSize is the logical block size (default 512).
	BlockSize int
	// LoginHook is forwarded to the target server (connection attribution).
	LoginHook func(target.LoginInfo)
}

// NewService starts a volume service whose target daemon listens on the
// endpoint's storage NIC at the iSCSI port.
func NewService(ep *netsim.Endpoint, cfg Config) (*Service, error) {
	if cfg.IQNPrefix == "" {
		cfg.IQNPrefix = "iqn.2016-04.edu.purdue.storm"
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 512
	}
	opts := []target.Option{target.WithObs(obs.Default(), obs.StageTarget)}
	if cfg.LoginHook != nil {
		opts = append(opts, target.WithLoginHook(cfg.LoginHook))
	}
	if cfg.DiskRead == (blockdev.ServiceModel{}) && cfg.DiskWrite == (blockdev.ServiceModel{}) {
		// With no modelled medium time a volume is a memory disk behind a
		// fault switch: a command has nothing to wait for, so there is
		// nothing for a second command on the connection to overlap with,
		// and a quiet connection may run it in its read loop instead of
		// paying a goroutine per command — the rule the relay applies to its
		// interception charge. A modelled disk keeps the goroutine: its
		// service times must overlap up to DiskConcurrency.
		opts = append(opts, target.WithInlineExec())
	}
	s := &Service{
		iqnPrefix:   cfg.IQNPrefix,
		readModel:   cfg.DiskRead,
		writeModel:  cfg.DiskWrite,
		concurrency: cfg.DiskConcurrency,
		blockSize:   cfg.BlockSize,
		volumes:     make(map[string]*Volume),
		srv:         target.NewServer(opts...),
	}
	ln, err := ep.Listen(netsim.StorageNet, 3260)
	if err != nil {
		return nil, fmt.Errorf("volume: listen: %w", err)
	}
	s.addr = ln.Addr().(netsim.Addr)
	go s.srv.Serve(ln)
	return s, nil
}

// TargetAddr returns the iSCSI target address on the storage network.
func (s *Service) TargetAddr() netsim.Addr { return s.addr }

// Close stops the target server.
func (s *Service) Close() { s.srv.Close() }

// Create provisions a thin volume of the given size.
func (s *Service) Create(name string, sizeBytes uint64) (*Volume, error) {
	if sizeBytes == 0 || sizeBytes%uint64(s.blockSize) != 0 {
		return nil, fmt.Errorf("volume: size %d is not a positive multiple of %d", sizeBytes, s.blockSize)
	}
	mem, err := blockdev.NewMemDisk(s.blockSize, sizeBytes/uint64(s.blockSize))
	if err != nil {
		return nil, err
	}
	fault := blockdev.NewFaultDisk(mem)
	var dev blockdev.Device = fault
	if s.readModel != (blockdev.ServiceModel{}) || s.writeModel != (blockdev.ServiceModel{}) {
		dev = blockdev.NewLatencyDiskQueued(dev, s.readModel, s.writeModel, s.concurrency)
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("vol-%04d", s.nextID)
	v := &Volume{
		ID:        id,
		Name:      name,
		SizeBytes: sizeBytes,
		IQN:       fmt.Sprintf("%s:%s", s.iqnPrefix, id),
		Status:    StatusAvailable,
		dev:       dev,
		fault:     fault,
		mem:       mem,
	}
	s.volumes[id] = v
	s.mu.Unlock()

	if err := s.srv.AddTarget(v.IQN, dev); err != nil {
		s.mu.Lock()
		delete(s.volumes, id)
		s.mu.Unlock()
		return nil, err
	}
	return v, nil
}

// Get returns a volume by ID.
func (s *Service) Get(id string) (*Volume, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.volumes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return v, nil
}

// List returns all volumes sorted by ID.
func (s *Service) List() []*Volume {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Volume, 0, len(s.volumes))
	for _, v := range s.volumes {
		out = append(out, v)
	}
	return out
}

// MarkAttached records the attachment (Nova-side bookkeeping).
func (s *Service) MarkAttached(id, vm string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.volumes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if v.Status == StatusAttached {
		return fmt.Errorf("%w: attached to %s", ErrInUse, v.AttachedTo)
	}
	v.Status = StatusAttached
	v.AttachedTo = vm
	return nil
}

// MarkDetached records the detachment.
func (s *Service) MarkDetached(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.volumes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if v.Status != StatusAttached {
		return ErrNotAttached
	}
	v.Status = StatusAvailable
	v.AttachedTo = ""
	return nil
}

// Snapshot creates a new available volume holding a point-in-time copy of
// the source volume's data (crash-consistent: concurrent writes either
// land in the snapshot or do not).
func (s *Service) Snapshot(id, name string) (*Volume, error) {
	src, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	mem, err := src.mem.Clone()
	if err != nil {
		return nil, fmt.Errorf("volume: snapshot %s: %w", id, err)
	}
	fault := blockdev.NewFaultDisk(mem)
	var dev blockdev.Device = fault
	if s.readModel != (blockdev.ServiceModel{}) || s.writeModel != (blockdev.ServiceModel{}) {
		dev = blockdev.NewLatencyDiskQueued(dev, s.readModel, s.writeModel, s.concurrency)
	}
	s.mu.Lock()
	s.nextID++
	snapID := fmt.Sprintf("vol-%04d", s.nextID)
	v := &Volume{
		ID:        snapID,
		Name:      name,
		SizeBytes: src.SizeBytes,
		IQN:       fmt.Sprintf("%s:%s", s.iqnPrefix, snapID),
		Status:    StatusAvailable,
		dev:       dev,
		fault:     fault,
		mem:       mem,
	}
	s.volumes[snapID] = v
	s.mu.Unlock()
	if err := s.srv.AddTarget(v.IQN, dev); err != nil {
		s.mu.Lock()
		delete(s.volumes, snapID)
		s.mu.Unlock()
		return nil, err
	}
	return v, nil
}

// Delete removes an available volume.
func (s *Service) Delete(id string) error {
	s.mu.Lock()
	v, ok := s.volumes[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if v.Status == StatusAttached {
		s.mu.Unlock()
		return fmt.Errorf("%w: attached to %s", ErrInUse, v.AttachedTo)
	}
	delete(s.volumes, id)
	s.mu.Unlock()
	s.srv.RemoveTarget(v.IQN)
	return nil
}
