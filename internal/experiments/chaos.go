// Chaos smoke suite: the failure-recovery counterpart of the performance
// experiments. Each scenario injects faults from a deterministic schedule
// into a live data path and verifies no write is lost or misordered —
// the property StorM's early-ack journaling (Section III-B) and replica
// eviction/recovery (Figure 13) must preserve under failures.
package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/initiator"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/services/replica"
	"repro/internal/target"
)

// ChaosResult reports one chaos scenario's outcome. DataLoss is the
// pass/fail verdict: true when any acknowledged write was lost, reordered,
// or left stranded in a journal.
type ChaosResult struct {
	Scenario string `json:"scenario"`
	Writes   int    `json:"writes"`
	Faults   int    `json:"faults"`
	// JournalFailures counts write attempts the outage failed (later
	// replayed); zero faults hitting the data path makes the run vacuous,
	// so the scenario reports it.
	JournalFailures int `json:"journal_failures,omitempty"`
	// Replayed counts journal records a crash recovery delivered to the
	// backend (kill/replay scenarios).
	Replayed int    `json:"replayed,omitempty"`
	DataLoss bool   `json:"data_loss"`
	Detail   string `json:"detail"`
}

// RunChaosSuite executes every chaos scenario and returns the results.
// Callers treat any DataLoss=true as a failed run.
func RunChaosSuite() ([]ChaosResult, error) {
	relayRes, err := chaosRelayBackendCut()
	if err != nil {
		return nil, fmt.Errorf("relay-backend-cut: %w", err)
	}
	replicaRes, err := chaosReplicaKillHeal()
	if err != nil {
		return nil, fmt.Errorf("replica-kill-heal: %w", err)
	}
	return []ChaosResult{relayRes, replicaRes}, nil
}

// FormatChaos renders the chaos results as a report table.
func FormatChaos(results []ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %7s %9s %-6s detail\n", "scenario", "writes", "faults", "failures", "loss")
	for _, r := range results {
		verdict := "ok"
		if r.DataLoss {
			verdict = "LOST"
		}
		fmt.Fprintf(&b, "%-22s %8d %7d %9d %-6s %s\n",
			r.Scenario, r.Writes, r.Faults, r.JournalFailures, verdict, r.Detail)
	}
	return b.String()
}

// chaosRelayWorkload runs one VM→active-relay→target write workload over
// the netsim fabric, cutting the relay→storage link at the given logical
// ticks, and returns the read-back content hash plus the session journal.
func chaosRelayWorkload(cuts ...uint64) (sum [32]byte, j *middlebox.Journal, err error) {
	model := netsim.Model{MTU: 8 * 1024, Bandwidth: 1 << 32,
		Latency: map[netsim.HopKind]time.Duration{}, PerPacket: map[netsim.HopKind]time.Duration{}}
	fab := netsim.NewFabric(model)
	vmHost, err := fab.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
	if err != nil {
		return sum, nil, err
	}
	mbHost, err := fab.AddHost("mb1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.50"})
	if err != nil {
		return sum, nil, err
	}
	storHost, err := fab.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		return sum, nil, err
	}

	disk, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		return sum, nil, err
	}
	tsrv := target.NewServer()
	const iqn = "iqn.2016-04.edu.purdue.storm:chaos"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		return sum, nil, err
	}
	storLn, err := storHost.NewEndpoint("tgt").Listen(netsim.StorageNet, 3260)
	if err != nil {
		return sum, nil, err
	}
	go tsrv.Serve(storLn)
	defer tsrv.Close()

	relay, err := middlebox.NewRelay(middlebox.Config{
		Name:     "mb1",
		Mode:     middlebox.Active,
		Endpoint: mbHost.NewEndpoint("relay"),
		NextHop:  netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:     middlebox.CostModel{MTU: 8192, BatchSize: 65536},
		// Chaos runs exercise link cuts against an MC/S downstream leg.
		ForwardConns: 2,
		Recovery:     middlebox.RecoveryConfig{BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond},
	})
	if err != nil {
		return sum, nil, err
	}
	mbLn, err := mbHost.NewEndpoint("front").Listen(netsim.StorageNet, 3260)
	if err != nil {
		return sum, nil, err
	}
	go relay.Serve(mbLn)
	defer relay.Close()

	front, err := vmHost.NewEndpoint("vm").Dial(netsim.StorageNet, "10.0.0.50:3260")
	if err != nil {
		return sum, nil, err
	}
	sess, err := initiator.Login(front, initiator.Config{
		InitiatorIQN: "iqn.vm-chaos", TargetIQN: iqn,
	})
	if err != nil {
		return sum, nil, fmt.Errorf("login through relay: %w", err)
	}
	js := relay.AllJournals()
	if len(js) != 1 {
		return sum, nil, fmt.Errorf("relay lists %d session journals after login, want 1", len(js))
	}
	j = js[0]

	sched := faults.NewSchedule()
	for _, tick := range cuts {
		sched.At(tick, fmt.Sprintf("cut@%d", tick), func() {
			fab.CutLink("mb1", "storage1")
		})
	}

	const n = 48
	for i := 0; i < n; i++ {
		p := make([]byte, 512)
		for k := range p {
			p[k] = byte(i*7 + k)
		}
		if err := sess.Write(uint64(i), p, 512); err != nil {
			return sum, nil, fmt.Errorf("write %d: %w", i, err)
		}
		sched.Step()
	}
	if err := sess.Flush(); err != nil {
		return sum, nil, fmt.Errorf("flush: %w", err)
	}
	if fired := sched.Fired(); len(fired) != len(cuts) {
		return sum, nil, fmt.Errorf("schedule fired %d faults, want %d", len(fired), len(cuts))
	}

	h := sha256.New()
	for i := 0; i < n; i++ {
		b, err := sess.Read(uint64(i), 1, 512)
		if err != nil {
			return sum, nil, fmt.Errorf("read-back %d: %w", i, err)
		}
		h.Write(b)
	}
	if err := sess.Logout(); err != nil {
		return sum, nil, fmt.Errorf("logout: %w", err)
	}
	copy(sum[:], h.Sum(nil))
	return sum, j, nil
}

// chaosRelayBackendCut cuts the relay's backend link twice mid-workload and
// compares the surviving content against a no-fault run.
func chaosRelayBackendCut() (ChaosResult, error) {
	res := ChaosResult{Scenario: "relay-backend-cut", Writes: 48, Faults: 2}
	wantHash, cleanJ, err := chaosRelayWorkload()
	if err != nil {
		return res, fmt.Errorf("no-fault baseline: %w", err)
	}
	if used := cleanJ.UsedBytes(); used != 0 {
		return res, fmt.Errorf("no-fault baseline left %d journal bytes", used)
	}

	gotHash, j, err := chaosRelayWorkload(10, 30)
	if err != nil {
		return res, err
	}
	res.JournalFailures = len(j.Failures())
	switch {
	case gotHash != wantHash:
		res.DataLoss = true
		res.Detail = "content hash diverged from no-fault run"
	case j.UsedBytes() != 0 || j.Pending() != 0:
		res.DataLoss = true
		res.Detail = fmt.Sprintf("journal not drained: %d bytes, %d pending", j.UsedBytes(), j.Pending())
	case res.JournalFailures == 0:
		res.DataLoss = true
		res.Detail = "cuts never hit the data path (vacuous run)"
	default:
		res.Detail = "reconnected and replayed; content identical to no-fault run"
	}
	return res, nil
}

// chaosReplicaKillHeal kills one replica mid-workload, heals it, and checks
// the probe-driven resync leaves it byte-identical to the primary.
func chaosReplicaKillHeal() (ChaosResult, error) {
	res := ChaosResult{Scenario: "replica-kill-heal", Writes: 40, Faults: 2}
	mk := func() (*blockdev.MemDisk, error) { return blockdev.NewMemDisk(512, 128) }
	primary, err := mk()
	if err != nil {
		return res, err
	}
	rep1, err := mk()
	if err != nil {
		return res, err
	}
	rep2, err := mk()
	if err != nil {
		return res, err
	}
	fd := blockdev.NewFaultDisk(rep2)
	disp, err := replica.New(primary,
		replica.NamedDevice{Name: "replica1", Dev: rep1},
		replica.NamedDevice{Name: "replica2", Dev: fd})
	if err != nil {
		return res, err
	}

	sched := faults.NewSchedule()
	sched.At(10, "kill-replica2", func() { fd.Trip(fmt.Errorf("replica2 host down")) })
	sched.At(25, "heal-replica2", func() {
		fd.Heal()
		disp.Probe()
	})

	for i := 0; i < res.Writes; i++ {
		p := make([]byte, 512)
		for k := range p {
			p[k] = byte(i*13 + k)
		}
		if err := disp.WriteAt(p, uint64(i%64)); err != nil {
			return res, fmt.Errorf("write %d: %w", i, err)
		}
		sched.Step()
	}
	if err := disp.Flush(); err != nil {
		return res, err
	}
	if disp.AliveCount() != 3 {
		res.DataLoss = true
		res.Detail = fmt.Sprintf("healed replica not re-admitted: alive=%d", disp.AliveCount())
		return res, nil
	}
	pri := make([]byte, 512)
	rep := make([]byte, 512)
	for lba := uint64(0); lba < primary.Blocks(); lba++ {
		if err := primary.ReadAt(pri, lba); err != nil {
			return res, err
		}
		if err := rep2.ReadAt(rep, lba); err != nil {
			return res, err
		}
		if !bytes.Equal(pri, rep) {
			res.DataLoss = true
			res.Detail = fmt.Sprintf("replica2 diverges from primary at lba %d", lba)
			return res, nil
		}
	}
	res.Detail = "evicted, resynced, re-admitted; byte-identical to primary"
	return res, nil
}
