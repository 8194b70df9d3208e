package middlebox

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/initiator"
	"repro/internal/netsim"
	"repro/internal/target"
	"repro/internal/wal"
)

// slowDisk delays every write so the active relay builds a journal backlog:
// without it the appliers keep up with the workload and a crash finds
// nothing unapplied, making the replay assertions vacuous.
type slowDisk struct {
	blockdev.Device
	delay time.Duration
}

func (d *slowDisk) WriteAt(p []byte, lba uint64) error {
	time.Sleep(d.delay)
	return d.Device.WriteAt(p, lba)
}

// countingListener counts the connections a target accepts, so a test can
// check how wide the relay's forward session really is.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// requireAccepted fails the test unless the target behind ln has accepted
// exactly want connections: called after the first login, before any
// reconnect or replay dials more, it pins the forward session's MC/S width,
// so a relay that ignores ForwardConns fails.
func requireAccepted(t *testing.T, ln *countingListener, want int) {
	t.Helper()
	if got := int(ln.accepted.Load()); got != want {
		t.Fatalf("target accepted %d connections for the relay's forward session, want %d (ForwardConns)", got, want)
	}
}

// crashHarness is one relay-over-netsim universe for the crash tests.
type crashHarness struct {
	fab     *netsim.Fabric
	vmHost  *netsim.Host
	mbHost  *netsim.Host
	tsrv    *target.Server
	storLn  *countingListener
	iqn     string
	relaySN int // relay serial for unique endpoint/listener names
	// forwardConns is every relay's forward-session width (ForwardConns).
	forwardConns int
}

const crashWrites = 48
const crashLBAs = 32 // < crashWrites so later writes overwrite earlier ones

func newCrashHarness(t *testing.T, forwardConns int) *crashHarness {
	t.Helper()
	model := netsim.Model{MTU: 8 * 1024, Bandwidth: 1 << 32,
		Latency: map[netsim.HopKind]time.Duration{}, PerPacket: map[netsim.HopKind]time.Duration{}}
	fab := netsim.NewFabric(model)
	vmHost, err := fab.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	mbHost, err := fab.AddHost("mb1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.50"})
	if err != nil {
		t.Fatal(err)
	}
	storHost, err := fab.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tsrv := target.NewServer()
	const iqn = "iqn.2016-04.edu.purdue.storm:crash"
	if err := tsrv.AddTarget(iqn, &slowDisk{Device: disk, delay: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	ln, err := storHost.NewEndpoint("tgt").Listen(netsim.StorageNet, 3260)
	if err != nil {
		t.Fatal(err)
	}
	storLn := &countingListener{Listener: ln}
	go tsrv.Serve(storLn)
	t.Cleanup(func() { tsrv.Close() })
	return &crashHarness{fab: fab, vmHost: vmHost, mbHost: mbHost, tsrv: tsrv, storLn: storLn, iqn: iqn, forwardConns: forwardConns}
}

// startRelay launches an active relay with a durable journal under dir on a
// fresh middle-box port and returns it with its front address.
func (h *crashHarness) startRelay(t *testing.T, dir string) (*Relay, string) {
	t.Helper()
	h.relaySN++
	port := 3260 + h.relaySN
	name := fmt.Sprintf("mb1-%d", h.relaySN)
	relay, err := NewRelay(Config{
		Name:         name,
		Mode:         Active,
		Endpoint:     h.mbHost.NewEndpoint("relay-" + name),
		NextHop:      netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:         CostModel{MTU: 8192, BatchSize: 65536},
		JournalDir:   dir,
		ForwardConns: h.forwardConns,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := h.mbHost.NewEndpoint("front-"+name).Listen(netsim.StorageNet, port)
	if err != nil {
		t.Fatal(err)
	}
	go relay.Serve(ln)
	t.Cleanup(relay.Close)
	return relay, fmt.Sprintf("10.0.0.50:%d", port)
}

func (h *crashHarness) login(t *testing.T, addr, ep string) *initiator.Session {
	t.Helper()
	conn, err := h.vmHost.NewEndpoint(ep).Dial(netsim.StorageNet, addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := initiator.Login(conn, initiator.Config{
		InitiatorIQN: "iqn.vm-crash", TargetIQN: h.iqn,
	})
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	return sess
}

// crashPattern is write i's payload: distinct per write so overwrites of the
// same LBA are order-sensitive.
func crashPattern(i int) []byte {
	p := make([]byte, 512)
	for k := range p {
		p[k] = byte(i*31 + k*7 + 11)
	}
	return p
}

// readBackHash hashes the final content of every LBA the workload touched.
func readBackHash(t *testing.T, sess *initiator.Session) [32]byte {
	t.Helper()
	h := sha256.New()
	for lba := 0; lba < crashLBAs; lba++ {
		b, err := sess.Read(uint64(lba), 1, 512)
		if err != nil {
			t.Fatalf("read-back lba %d: %v", lba, err)
		}
		h.Write(b)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// crashBaseline runs the workload with no crash and returns the content hash.
func crashBaseline(t *testing.T) [32]byte {
	h := newCrashHarness(t, 1)
	_, addr := h.startRelay(t, filepath.Join(t.TempDir(), "j"))
	sess := h.login(t, addr, "vm")
	for i := 0; i < crashWrites; i++ {
		if err := sess.Write(uint64(i%crashLBAs), crashPattern(i), 512); err != nil {
			t.Fatalf("baseline write %d: %v", i, err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	sum := readBackHash(t, sess)
	if err := sess.Logout(); err != nil {
		t.Fatal(err)
	}
	return sum
}

// crashRun kills the relay, whose forward session has forwardConns MC/S
// connections, at the seed-chosen tick mid-workload, recovers onto a
// replacement relay (WAL reopen + replay), finishes the workload there, and
// returns the content hash plus how many journal records the replay
// delivered.
func crashRun(t *testing.T, seed int64, forwardConns int) (sum [32]byte, tick uint64, replayed int) {
	h := newCrashHarness(t, forwardConns)
	stateDir := t.TempDir()
	dir1 := filepath.Join(stateDir, "mb1")
	relay1, addr1 := h.startRelay(t, dir1)

	sched := faults.NewSchedule()
	tick = faults.Crash(sched, seed, 2, crashWrites-2, relay1.Kill)

	sess := h.login(t, addr1, "vm")
	requireAccepted(t, h.storLn, forwardConns)
	var sess2 *initiator.Session
	crashed := false
	for i := 0; i < crashWrites; i++ {
		cur := sess
		if crashed {
			cur = sess2
		}
		err := cur.Write(uint64(i%crashLBAs), crashPattern(i), 512)
		if err != nil {
			if crashed {
				t.Fatalf("write %d failed after recovery: %v", i, err)
			}
			if !relay1.Killed() {
				t.Fatalf("write %d failed before the crash point: %v", i, err)
			}
			crashed = true
			_ = sess.Close()
			// Re-provision: a replacement relay recovers the crashed
			// instance's durable journals, then the client reconnects and
			// retries the unacknowledged write.
			dir2 := filepath.Join(stateDir, "mb2")
			relay2, addr2 := h.startRelay(t, dir2)
			n, err := relay2.RecoverFrom(dir1)
			if err != nil {
				t.Fatalf("RecoverFrom after crash at tick %d: %v", tick, err)
			}
			replayed = n
			sess2 = h.login(t, addr2, "vm2")
			i-- // retry the failed, never-acknowledged write
			continue
		}
		sched.Step()
	}
	if !crashed {
		t.Fatalf("seed %d (tick %d): workload finished without observing the crash", seed, tick)
	}
	if err := sess2.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	sum = readBackHash(t, sess2)
	if err := sess2.Logout(); err != nil {
		t.Fatalf("logout: %v", err)
	}

	// The crashed instance's WAL directory must be consumed by the replay.
	if entries, err := os.ReadDir(dir1); err == nil && len(entries) != 0 {
		t.Fatalf("crashed relay's journal dir still holds %d entries after replay", len(entries))
	}
	return sum, tick, replayed
}

// TestCrashReplayAtManyPoints is the acceptance criterion: kill the relay
// at ≥ 20 distinct seed-chosen points mid-workload, reopen the WAL from
// disk on a replacement instance, replay, and end byte-identical to the
// no-crash baseline with empty journals — zero acknowledged writes lost.
// Every point runs twice: with a single-connection forward session, and
// with a two-connection MC/S one (subtests suffixed _conns2), whose replay
// must land the same bytes as the single-connection baseline.
func TestCrashReplayAtManyPoints(t *testing.T) {
	want := crashBaseline(t)

	const distinctPoints = 20
	for _, conns := range []int{1, 2} {
		seen := make(map[uint64]bool)
		totalReplayed := 0
		for seed := int64(0); len(seen) < distinctPoints && seed < 200; seed++ {
			tick := faults.CrashPoint(seed, 2, crashWrites-2)
			if seen[tick] {
				continue
			}
			name := fmt.Sprintf("seed%d_tick%d", seed, tick)
			if conns > 1 {
				name += fmt.Sprintf("_conns%d", conns)
			}
			t.Run(name, func(t *testing.T) {
				got, gotTick, replayed := crashRun(t, seed, conns)
				if gotTick != tick {
					t.Fatalf("CrashPoint not deterministic: %d then %d", tick, gotTick)
				}
				if got != want {
					t.Fatalf("content hash after crash at tick %d differs from no-crash baseline (acknowledged write lost or misordered)", tick)
				}
				totalReplayed += replayed
			})
			seen[tick] = true
		}
		if len(seen) < distinctPoints {
			t.Fatalf("only %d distinct crash points out of %d required", len(seen), distinctPoints)
		}
		if totalReplayed == 0 {
			t.Fatalf("no %d-connection run replayed any journal record — the crash never caught unapplied acknowledged writes (vacuous test)", conns)
		}
	}
}

// TestRecoverFromIsolatesBrokenSessions: one crashed relay can leave
// several session journals behind, and not all of them healthy — a session
// dir with no segments (crash between the journal's mkdir and its first
// durable write) and a corrupt WAL must not block the good session's
// replay. The empty husk is cleared, the corrupt WAL is kept for another
// attempt, and the aggregate error is typed.
func TestRecoverFromIsolatesBrokenSessions(t *testing.T) {
	h := newCrashHarness(t, 1)
	stateDir := t.TempDir()
	dir1 := filepath.Join(stateDir, "mb1")
	meta := wal.Meta{Attrs: map[string]string{
		"iqn":     h.iqn,
		"net":     strconv.Itoa(int(netsim.StorageNet)),
		"nexthop": "10.0.0.100:3260",
	}}

	// sess-1: a healthy journal holding three unapplied acknowledged writes.
	const goodRecords = 3
	good := filepath.Join(dir1, "sess-1")
	lg, err := wal.Create(good, meta, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goodRecords; i++ {
		if _, err := lg.Append(uint64(i), crashPattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	lg.Kill()

	// sess-2: the predecessor died between MkdirAll and the first segment
	// write — an empty directory with nothing recoverable.
	empty := filepath.Join(dir1, "sess-2")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}

	// sess-3: a journal corrupted mid-log (damage with live log after it).
	bad := filepath.Join(dir1, "sess-3")
	lb, err := wal.Create(bad, meta, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := lb.Append(uint64(16+i), crashPattern(16+i)); err != nil {
			t.Fatal(err)
		}
	}
	lb.Kill()
	badSeg := filepath.Join(bad, "00000000.seg")
	segBytes, err := os.ReadFile(badSeg)
	if err != nil {
		t.Fatal(err)
	}
	segBytes[len(segBytes)/2] ^= 0x40
	if err := os.WriteFile(badSeg, segBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	relay2, addr2 := h.startRelay(t, filepath.Join(stateDir, "mb2"))
	n, err := relay2.RecoverFrom(dir1)
	if n != goodRecords {
		t.Fatalf("RecoverFrom replayed %d records, want %d from the healthy session", n, goodRecords)
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("RecoverFrom err = %v, want the corrupt session's typed error", err)
	}
	// The healthy session's WAL is consumed, the empty husk cleared, and the
	// corrupt WAL kept on disk for another attempt.
	if _, err := os.Stat(good); !os.IsNotExist(err) {
		t.Fatalf("replayed session dir still present: %v", err)
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatalf("empty session dir not cleared: %v", err)
	}
	if _, err := os.Stat(badSeg); err != nil {
		t.Fatalf("corrupt session WAL not kept for retry: %v", err)
	}
	// The replayed records actually reached the backend.
	sess := h.login(t, addr2, "vm-verify")
	for i := 0; i < goodRecords; i++ {
		b, err := sess.Read(uint64(i), 1, 512)
		if err != nil {
			t.Fatalf("read-back lba %d: %v", i, err)
		}
		if !bytes.Equal(b, crashPattern(i)) {
			t.Fatalf("lba %d does not hold the replayed record", i)
		}
	}
	if err := sess.Logout(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoverySurvivesSecondCrash crashes the replacement too: replay
// must be idempotent across repeated recoveries.
func TestCrashRecoverySurvivesSecondCrash(t *testing.T) {
	want := crashBaseline(t)

	h := newCrashHarness(t, 1)
	stateDir := t.TempDir()
	dirs := []string{filepath.Join(stateDir, "mb1"), filepath.Join(stateDir, "mb2"), filepath.Join(stateDir, "mb3")}
	relay, addr := h.startRelay(t, dirs[0])
	sess := h.login(t, addr, "vm0")

	sched := faults.NewSchedule()
	crashAt := map[uint64]bool{12: true, 30: true}
	gen := 0
	relays := []*Relay{relay}
	for tick := range crashAt {
		r := func() { relays[len(relays)-1].Kill() }
		sched.At(tick, fmt.Sprintf("crash@%d", tick), r)
	}

	totalReplayed := 0
	for i := 0; i < crashWrites; i++ {
		err := sess.Write(uint64(i%crashLBAs), crashPattern(i), 512)
		if err != nil {
			if !relays[len(relays)-1].Killed() {
				t.Fatalf("write %d failed without a crash: %v", i, err)
			}
			_ = sess.Close()
			oldDir := dirs[gen]
			gen++
			if gen >= len(dirs) {
				t.Fatal("more crashes than scheduled")
			}
			r2, addr2 := h.startRelay(t, dirs[gen])
			n, rerr := r2.RecoverFrom(oldDir)
			if rerr != nil {
				t.Fatalf("recovery %d: %v", gen, rerr)
			}
			totalReplayed += n
			relays = append(relays, r2)
			sess = h.login(t, addr2, fmt.Sprintf("vm%d", gen))
			i--
			continue
		}
		sched.Step()
	}
	if gen != 2 {
		t.Fatalf("observed %d crashes, want 2", gen)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	got := readBackHash(t, sess)
	if err := sess.Logout(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("content differs from baseline after two crash-recovery rounds")
	}
	if totalReplayed == 0 {
		t.Fatal("neither recovery replayed anything (vacuous)")
	}
}
