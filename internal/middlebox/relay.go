package middlebox

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/iscsi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/target"
	"repro/internal/wal"
	"repro/internal/xerr"
)

// Mode selects the relay's interception strategy (Section III-B).
type Mode int

// Relay modes.
const (
	// Passive hooks every packet on the kernel forwarding path into user
	// space and completes commands synchronously — simple but costly.
	Passive Mode = iota + 1
	// Active splits the connection in two, acknowledges the source
	// immediately after journaling, and forwards asynchronously.
	Active
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case Passive:
		return "passive-relay"
	case Active:
		return "active-relay"
	default:
		return "relay(?)"
	}
}

// CostModel captures the interception costs of the two designs: the
// passive relay pays a kernel-to-user copy per packet (one hook callback
// and syscall each), while the active relay reads through the kernel TCP
// stack, which packs several packets per copy.
type CostModel struct {
	// PassivePerPacket is the per-MTU-packet hook + copy cost.
	PassivePerPacket time.Duration
	// ActivePerBatch is the per-batch copy cost through the TCP stack.
	ActivePerBatch time.Duration
	// MTU is the packet size used for passive accounting.
	MTU int
	// BatchSize is the TCP-stack copy granularity for active accounting.
	BatchSize int
	// CopyThreads bounds the relay VM's concurrent packet-copy paths: the
	// paper identifies the intra-host packet copy as single-threaded, so a
	// small middle-box VM serializes interception across its sessions and
	// becomes a per-instance throughput ceiling — the saturation signal the
	// scale-out orchestrator reacts to. 0 leaves copies unbounded (the
	// legacy behaviour, a VM with as many vCPUs as sessions).
	CopyThreads int
}

// DefaultJournalCapacity bounds the active relay's NVRAM buffer when the
// configuration leaves it zero: enough to hide backend latency, small
// enough that sustained overload falls back to write-through (the physical
// NVRAM is finite).
const DefaultJournalCapacity = 4 << 20

// DefaultCostModel mirrors the calibration in EXPERIMENTS.md.
func DefaultCostModel() CostModel {
	return CostModel{
		PassivePerPacket: 4 * time.Microsecond,
		ActivePerBatch:   8 * time.Microsecond,
		MTU:              8 * 1024,
		BatchSize:        64 * 1024,
	}
}

// interceptCost returns the modelled cost of moving n payload bytes
// between the wire and the service process.
func (c CostModel) interceptCost(mode Mode, n int) time.Duration {
	if n <= 0 {
		n = 1
	}
	switch mode {
	case Passive:
		mtu := c.MTU
		if mtu <= 0 {
			mtu = 8 * 1024
		}
		packets := (n + mtu - 1) / mtu
		return time.Duration(packets) * c.PassivePerPacket
	case Active:
		batch := c.BatchSize
		if batch <= 0 {
			batch = 64 * 1024
		}
		batches := (n + batch - 1) / batch
		return time.Duration(batches) * c.ActivePerBatch
	default:
		return 0
	}
}

// ServiceFactory wraps a backend device with one tenant service. Factories
// compose in order: the first factory is closest to the backend.
type ServiceFactory func(backend blockdev.Device) (blockdev.Device, error)

// Config assembles a relay.
type Config struct {
	// Name is the middle-box's station name (diagnostics).
	Name string
	// Mode selects passive or active interception.
	Mode Mode
	// Dial opens the pseudo-client connection toward the next hop.
	// When nil, the relay requires front connections to carry netsim
	// route metadata and dials through Endpoint.
	Dial func(next netsim.Addr) (net.Conn, error)
	// Endpoint dials onward through the fabric when Dial is nil.
	Endpoint *netsim.Endpoint
	// NextHop overrides the front connection's route metadata.
	NextHop netsim.Addr
	// Services are the tenant service decorators, backend-first.
	Services []ServiceFactory
	// Params are the operational parameters the relay offers on both wire
	// legs: the pseudo-server negotiates them against each front login, and
	// the pseudo-client offers them to the next hop. Zero uses the protocol
	// defaults. The forward leg's actually negotiated values (the next hop
	// may cap them) size its burst windows and the write-back coalescing
	// limit.
	Params iscsi.Params
	// ForwardConns widens the pseudo-client (forward) session to this many
	// MC/S connections: commands round-robin across them with per-command
	// allegiance while CmdSN ordering stays session-wide. Default 1; capped
	// by the next hop's negotiated MaxConnections.
	ForwardConns int
	// JournalCapacity bounds the active relay's NVRAM buffer in bytes
	// (0 = unbounded).
	JournalCapacity int
	// JournalDir, when set for an active relay, makes every session journal
	// crash-durable: a segmented WAL under JournalDir/sess-<n> that a
	// replacement instance can reopen with RecoverFrom after this one dies.
	// Empty keeps the in-memory journal (fast, lost on crash).
	JournalDir string
	// JournalSyncWindow is the durable journal's group-commit window: how
	// long an append may wait to share an fsync with its neighbours. 0
	// syncs on every append (strictest latency, most fsyncs).
	JournalSyncWindow time.Duration
	// Cost is the interception cost model (DefaultCostModel when zero).
	Cost CostModel
	// CPU optionally receives the relay's processing charges.
	CPU *obs.CPUAccount
	// Obs optionally receives per-stage trace spans: the whole relay
	// service path under "stage.relay.<name>.service" and the downstream
	// forwarding leg under "stage.relay.<name>.forward". Nil disables
	// tracing.
	Obs *obs.Registry
}

// ErrDraining reports a login refused because the relay is draining: the
// orchestrator has stopped steering new flows here ahead of a scale-down,
// and the relay refuses new sessions while the established ones log out.
// Classed xerr.Terminal: logging in to the same relay again is pointless —
// the steering layer must place the flow elsewhere — so the target
// advertises the refusal as non-retryable and initiators fail fast instead
// of burning a retry budget here.
var ErrDraining = xerr.New(xerr.Terminal, "middlebox: relay is draining")

// Relay is a middle-box's storage relay: pseudo-server toward the source,
// pseudo-client toward the next hop, with the tenant's service chain in
// between.
type Relay struct {
	cfg Config
	srv *target.Server

	// regMu guards the per-session registry: the write-back device of every
	// live active-mode session, and of every closed one whose journal ended
	// dirty (kept for audit, see retire), in creation order.
	regMu     sync.Mutex
	wbs       []*WriteBackDevice
	killables []Killable // service-chain devices with own crash state

	draining atomic.Bool
	sessions atomic.Int64
	sessSeq  atomic.Int64 // names per-session durable journal directories
	killed   atomic.Bool

	// copyGate, when non-nil, serializes interception across the relay's
	// sessions (CostModel.CopyThreads concurrent copies).
	copyGate chan struct{}

	sessionsGauge *obs.Gauge
	busyNS        *obs.Counter
	negBurstGauge *obs.Gauge
}

// NewRelay builds a relay from the configuration.
func NewRelay(cfg Config) (*Relay, error) {
	if cfg.Mode != Passive && cfg.Mode != Active {
		return nil, fmt.Errorf("middlebox: invalid mode %d", cfg.Mode)
	}
	if cfg.Dial == nil && cfg.Endpoint == nil {
		return nil, errors.New("middlebox: relay needs Dial or Endpoint")
	}
	if threads := cfg.Cost.CopyThreads; cfg.Cost == (CostModel{CopyThreads: threads}) {
		def := DefaultCostModel()
		def.CopyThreads = threads
		cfg.Cost = def
	}
	r := &Relay{cfg: cfg}
	if cfg.Cost.CopyThreads > 0 {
		r.copyGate = make(chan struct{}, cfg.Cost.CopyThreads)
	}
	r.sessionsGauge = cfg.Obs.Gauge("relay." + cfg.Name + ".sessions")
	r.busyNS = cfg.Obs.Counter("relay." + cfg.Name + ".busy_ns")
	r.negBurstGauge = cfg.Obs.Gauge("relay." + cfg.Name + ".neg_max_burst")
	opts := []target.Option{
		target.WithResolver(r.resolve),
	}
	if cfg.Params != (iscsi.Params{}) {
		opts = append(opts, target.WithParams(cfg.Params))
	}
	if cfg.Cost.interceptCost(cfg.Mode, 1<<20) == 0 {
		// With no modelled interception charge the front device stack is an
		// early-ack journal append (active) or a service pass-through, so a
		// quiet connection may execute commands inline in its read loop
		// instead of paying two scheduler wakeups per command. Configs that
		// model interception cost keep the per-command goroutine: an inline
		// command would busy-hold the connection through the charge (and the
		// shared copy gate).
		opts = append(opts, target.WithInlineExec())
	}
	r.srv = target.NewServer(opts...)
	return r, nil
}

// Serve accepts front connections on ln until it closes.
func (r *Relay) Serve(ln net.Listener) { r.srv.Serve(ln) }

// Close stops the relay and drains sessions.
func (r *Relay) Close() { r.srv.Close() }

// Drain puts the relay into draining mode: new sessions are refused with
// ErrDraining while established sessions keep running. Together with the
// steering layer's drain mark (no new flows hash here) this quiesces the
// instance so a scale-down can tear it down with zero data loss.
func (r *Relay) Drain() { r.draining.Store(true) }

// Draining reports whether the relay refuses new sessions.
func (r *Relay) Draining() bool { return r.draining.Load() }

// ActiveSessions returns the number of live front sessions.
func (r *Relay) ActiveSessions() int { return int(r.sessions.Load()) }

// CopyThreads returns the relay's interception concurrency bound (0 =
// unbounded); the orchestrator uses it as the utilization denominator.
func (r *Relay) CopyThreads() int { return r.cfg.Cost.CopyThreads }

// JournalBytes returns the early-acknowledged write bytes still unapplied
// across every session journal — data that would be lost if the instance
// were torn down now.
func (r *Relay) JournalBytes() int {
	total := 0
	for _, j := range r.AllJournals() {
		total += j.UsedBytes()
	}
	return total
}

// JournalPending returns the journaled-but-unapplied entry count across
// every session journal.
func (r *Relay) JournalPending() int {
	total := 0
	for _, j := range r.AllJournals() {
		total += j.Pending()
	}
	return total
}

// Quiesced reports whether a draining relay has fully wound down: no live
// sessions and an empty write-back journal.
func (r *Relay) Quiesced() bool {
	return r.Draining() && r.ActiveSessions() == 0 && r.JournalBytes() == 0 && r.JournalPending() == 0
}

// DrainStatus is a snapshot of the relay's wind-down progress.
type DrainStatus struct {
	Draining       bool
	Sessions       int
	JournalBytes   int
	JournalPending int
}

// DrainStatus reports the relay's current drain progress.
func (r *Relay) DrainStatus() DrainStatus {
	return DrainStatus{
		Draining:       r.Draining(),
		Sessions:       r.ActiveSessions(),
		JournalBytes:   r.JournalBytes(),
		JournalPending: r.JournalPending(),
	}
}

// AllJournals returns the journal of every live active-mode session, and of
// every closed one that ended with unapplied bytes or recorded failures, in
// creation order — so post-run fault audits (Journal.Pending, UsedBytes)
// see every loss surface. A session's journal is listed once its login completes.
func (r *Relay) AllJournals() []*Journal {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	out := make([]*Journal, len(r.wbs))
	for i, wb := range r.wbs {
		out[i] = wb.Journal()
	}
	return out
}

// openBackend dials the next hop, logs in with the front session's target
// name, and stacks the tenant service chain on the backend device. It
// returns the forward session's negotiated parameters so the caller can
// size downstream batching to the actual wire window. The active relay's
// recovery path calls it again after a backend session loss.
func (r *Relay) openBackend(iqn string, next netsim.Addr) (blockdev.Device, iscsi.Params, error) {
	dial := func() (net.Conn, error) {
		if r.cfg.Dial != nil {
			return r.cfg.Dial(next)
		}
		return r.cfg.Endpoint.DialAddr(next)
	}
	backConn, err := dial()
	if err != nil {
		return nil, iscsi.Params{}, fmt.Errorf("middlebox: dial next hop %v: %w", next, err)
	}
	sess, err := initiator.Login(backConn, initiator.Config{
		InitiatorIQN: "iqn.2016-04.edu.purdue.storm:mb:" + r.cfg.Name,
		TargetIQN:    iqn,
		// The relay aggregates a whole session's traffic onto its
		// pseudo-client leg; it needs the full command window.
		QueueDepth: 64,
		// The forward leg negotiates the relay's burst windows with the
		// next hop and, when configured, widens onto multiple MC/S
		// connections (DialConn re-dials the same next hop for the extra
		// transports and secondary reattach).
		Params:   r.cfg.Params,
		Conns:    r.cfg.ForwardConns,
		DialConn: dial,
		Obs:      r.cfg.Obs,
		Stage:    obs.RelayForwardStage(r.cfg.Name),
	})
	if err != nil {
		_ = backConn.Close()
		return nil, iscsi.Params{}, fmt.Errorf("middlebox: backend login: %w", err)
	}
	neg := sess.Params()
	r.negBurstGauge.Set(int64(neg.MaxBurstLength))
	dev, err := initiator.OpenDevice(sess)
	if err != nil {
		_ = sess.Close()
		return nil, iscsi.Params{}, err
	}

	var stack blockdev.Device = dev
	for _, f := range r.cfg.Services {
		stack, err = f(stack)
		if err != nil {
			_ = sess.Close()
			return nil, iscsi.Params{}, fmt.Errorf("middlebox: build service chain: %w", err)
		}
		// Service layers carrying crash-relevant state of their own (the
		// replicate box's dispatch journal) register for Relay.Kill, so a
		// crash freezes them at the same instant as the session journals.
		if k, ok := stack.(Killable); ok {
			r.regMu.Lock()
			r.killables = append(r.killables, k)
			r.regMu.Unlock()
		}
	}
	return stack, neg, nil
}

// Killable is implemented by service-chain devices that hold crash-durable
// state of their own. The relay freezes them (no flush, journals kept on
// disk) when it is crash-killed.
type Killable interface{ Kill() }

// resolve is the pseudo-server's device resolver: it opens the backend stack
// through openBackend and adds the mode-specific decorators.
func (r *Relay) resolve(iqn string, conn net.Conn) (blockdev.Device, bool, error) {
	if r.draining.Load() {
		return nil, false, ErrDraining
	}
	next := r.cfg.NextHop
	if next.IsZero() {
		nc, ok := conn.(*netsim.Conn)
		if !ok || nc.Route() == nil || nc.Route().NextHop.IsZero() {
			return nil, false, errors.New("middlebox: front connection has no next-hop metadata")
		}
		next = nc.Route().NextHop
	}

	stack, neg, err := r.openBackend(iqn, next)
	if err != nil {
		return nil, false, err
	}
	var wb *WriteBackDevice
	if r.cfg.Mode == Active {
		capacity := r.cfg.JournalCapacity
		if capacity == 0 {
			capacity = DefaultJournalCapacity
		}
		var j *Journal
		if r.cfg.JournalDir == "" {
			j = NewJournal(capacity)
		} else {
			dir := filepath.Join(r.cfg.JournalDir, fmt.Sprintf("sess-%d", r.sessSeq.Add(1)))
			j, err = NewDurableJournal(dir, wal.Meta{Attrs: map[string]string{
				"iqn":     iqn,
				"net":     strconv.Itoa(int(next.Net)),
				"nexthop": next.String(),
			}}, capacity, wal.Options{SyncWindow: r.cfg.JournalSyncWindow})
			if err != nil {
				_ = stack.Close()
				return nil, false, fmt.Errorf("middlebox: durable journal: %w", err)
			}
		}
		// The write-back device owns the forward leg after the early ack: on
		// a backend loss it re-dials the next hop, rebuilds the service
		// chain and replays the journal.
		wb = NewWriteBackRecovering(stack, j, func() (blockdev.Device, error) {
			dev, _, err := r.openBackend(iqn, next)
			return dev, err
		})
		// Cap adjacent-write coalescing at the forward leg's negotiated
		// burst window, so one coalesced apply is at most one solicited
		// burst on the wire.
		wb.SetMaxCoalesce(neg.MaxBurstLength)
		r.regMu.Lock()
		r.wbs = append(r.wbs, wb)
		r.regMu.Unlock()
		stack = wb
	}
	id := newInterceptDevice(stack, r.cfg.Mode, r.cfg.Cost, r.cfg.CPU)
	id.gate = r.copyGate
	id.busy = r.busyNS
	stack = id
	// The outermost probe times the whole relay service path: interception,
	// tenant services, journaling, and the downstream forward.
	stack = blockdev.NewObservedDisk(stack, r.cfg.Obs, obs.RelayServiceStage(r.cfg.Name))
	// Count the session for drain tracking. The hook fires when the
	// pseudo-server closes the session's device at logout: it retires the
	// session from the registry and closes its journal (a clean durable
	// journal deletes its WAL) before the session stops counting.
	r.sessions.Add(1)
	r.sessionsGauge.Add(1)
	stack = &closeHookDevice{Device: stack, hook: func() {
		if wb != nil {
			r.retire(wb)
			_ = wb.Journal().Close()
		}
		r.sessions.Add(-1)
		r.sessionsGauge.Add(-1)
	}}
	return stack, true, nil
}

// retire drops a closed session's write-back device from the registry if its
// journal ended clean: nothing unapplied and no recorded failures. One that
// still holds early-acked data or failed entries stays, so post-run audits
// (AllJournals) see every loss surface; without retirement the
// registry grows without bound across session churn.
func (r *Relay) retire(wb *WriteBackDevice) {
	if !wb.Journal().clean() {
		return
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if i := slices.Index(r.wbs, wb); i >= 0 {
		r.wbs = slices.Delete(r.wbs, i, i+1)
	}
}

// Kill crash-stops the relay: every session journal freezes (nothing is
// acknowledged or marked applied past this instant — the durability cut
// line), the write-back appliers stop without draining, and the
// pseudo-server aborts its sessions. In-memory journal contents are lost,
// exactly as a real middle-box crash would lose NVRAM-less state; durable
// journals keep their WAL directories on disk for a replacement instance's
// RecoverFrom.
func (r *Relay) Kill() {
	if !r.killed.CompareAndSwap(false, true) {
		return
	}
	obs.Default().Eventf("relay", "%s: crash-killed (%d sessions)", r.cfg.Name, r.sessions.Load())
	r.regMu.Lock()
	wbs := slices.Clone(r.wbs)
	ks := slices.Clone(r.killables)
	r.regMu.Unlock()
	for _, wb := range wbs {
		wb.Journal().Kill()
	}
	for _, wb := range wbs {
		wb.Kill()
	}
	for _, k := range ks {
		k.Kill()
	}
	r.srv.Close()
}

// Killed reports whether the relay was crash-stopped.
func (r *Relay) Killed() bool { return r.killed.Load() }

// RecoverFrom replays a crashed predecessor's durable journals: it scans
// dir (the predecessor's JournalDir) for per-session WALs, reopens each,
// pushes the surviving unapplied records in sequence order through a
// freshly built backend service chain (the journal holds pre-service data,
// so encryption and friends must run again), flushes, and deletes the WAL.
// Replay is idempotent — records whose writes also landed before the crash
// simply overwrite with identical bytes. Sessions recover independently: a
// segment-less session directory (a crash between the journal's mkdir and
// its first durable record — nothing was ever acknowledged from it) is
// cleared and skipped, and a corrupt WAL or unreachable backend keeps that
// session's WAL on disk for another attempt without blocking the remaining
// sessions' replay. It returns the number of records replayed and the
// joined per-session errors.
func (r *Relay) RecoverFrom(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil // predecessor never journaled a session
		}
		return 0, fmt.Errorf("middlebox: recover from %s: %w", dir, err)
	}
	replays := obs.Default().Counter("journal.replays")
	replayed := obs.Default().Counter("journal.replayed_records")
	total := 0
	var errs []error
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sessDir := filepath.Join(dir, e.Name())
		log, rec, err := wal.Open(sessDir, wal.Options{SyncWindow: r.cfg.JournalSyncWindow})
		if errors.Is(err, wal.ErrNoSegments) {
			// Nothing durable ever landed here; remove the husk if it is
			// empty (a stray non-empty directory is left alone) and move on.
			_ = os.Remove(sessDir)
			continue
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("middlebox: recover %s: %w", sessDir, err))
			continue
		}
		n, err := r.replayRecovered(rec)
		if err != nil {
			_ = log.Close() // keep the WAL for another attempt
			errs = append(errs, fmt.Errorf("middlebox: recover %s: %w", sessDir, err))
			continue
		}
		total += n
		replays.Inc()
		replayed.Add(int64(n))
		obs.Default().Eventf("relay", "%s: recovered session journal %s: %d record(s) replayed (torn=%v)",
			r.cfg.Name, e.Name(), n, rec.Torn)
		if err := log.Remove(); err != nil {
			errs = append(errs, fmt.Errorf("middlebox: remove replayed journal %s: %w", sessDir, err))
		}
	}
	return total, errors.Join(errs...)
}

// replayRecovered delivers one recovered journal's records to the backend
// named by its meta, through a rebuilt service chain.
func (r *Relay) replayRecovered(rec *wal.Recovery) (int, error) {
	if len(rec.Records) == 0 {
		return 0, nil
	}
	iqn := rec.Meta.Attrs["iqn"]
	if iqn == "" {
		return 0, errors.New("journal meta lacks target iqn")
	}
	netNum, err := strconv.Atoi(rec.Meta.Attrs["net"])
	if err != nil {
		return 0, fmt.Errorf("journal meta network: %w", err)
	}
	next, err := netsim.ParseHostPort(netsim.Network(netNum), rec.Meta.Attrs["nexthop"])
	if err != nil {
		return 0, fmt.Errorf("journal meta next hop: %w", err)
	}
	stack, _, err := r.openBackend(iqn, next)
	if err != nil {
		return 0, err
	}
	for _, rc := range rec.Records {
		if err := stack.WriteAt(rc.Data, rc.LBA); err != nil {
			_ = stack.Close()
			return 0, fmt.Errorf("replay seq %d (lba %d): %w", rc.Seq, rc.LBA, err)
		}
	}
	if err := stack.Flush(); err != nil {
		_ = stack.Close()
		return 0, fmt.Errorf("flush after replay: %w", err)
	}
	if err := stack.Close(); err != nil {
		return 0, err
	}
	return len(rec.Records), nil
}

// closeHookDevice runs a hook after the wrapped device finishes closing —
// the relay uses it to observe session teardown at the device layer.
type closeHookDevice struct {
	blockdev.Device
	hook func()
}

func (d *closeHookDevice) Close() error {
	err := d.Device.Close()
	d.hook()
	return err
}

// interceptDevice charges the mode's interception cost (and CPU) per
// medium access, modelling the packet copy path into the service process.
type interceptDevice struct {
	dev  blockdev.Device
	mode Mode
	cost CostModel
	cpu  *obs.CPUAccount
	// gate, when non-nil, bounds concurrent copies across the relay's
	// sessions (CostModel.CopyThreads); busy accumulates charged copy time.
	gate chan struct{}
	busy *obs.Counter
}

var _ blockdev.Device = (*interceptDevice)(nil)

func newInterceptDevice(dev blockdev.Device, mode Mode, cost CostModel, cpu *obs.CPUAccount) *interceptDevice {
	return &interceptDevice{dev: dev, mode: mode, cost: cost, cpu: cpu}
}

func (d *interceptDevice) charge(n int) {
	c := d.cost.interceptCost(d.mode, n)
	if c <= 0 {
		return
	}
	if d.gate != nil {
		d.gate <- struct{}{}
	}
	simtime.Sleep(c)
	if d.gate != nil {
		<-d.gate
	}
	d.busy.Add(int64(c))
	if d.cpu != nil {
		d.cpu.Charge("intercept", c)
	}
}

func (d *interceptDevice) BlockSize() int { return d.dev.BlockSize() }

func (d *interceptDevice) Blocks() uint64 { return d.dev.Blocks() }

func (d *interceptDevice) ReadAt(p []byte, lba uint64) error {
	d.charge(len(p))
	return d.dev.ReadAt(p, lba)
}

func (d *interceptDevice) WriteAt(p []byte, lba uint64) error {
	d.charge(len(p))
	return d.dev.WriteAt(p, lba)
}

func (d *interceptDevice) Flush() error { return d.dev.Flush() }

func (d *interceptDevice) Close() error { return d.dev.Close() }
