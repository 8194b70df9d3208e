package main

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/extfs"
	"repro/internal/policy"
)

// rig is one workload set up and ready to be driven.
type rig struct {
	lab *lab
	att *attachment
	// run drives the load for one timed window and returns its wall time.
	run  func(d time.Duration) time.Duration
	recs []*recorder
	// check runs the workload's end-of-run checks.
	check func() checkResult
	// wrap, when set, is applied to the VM-side device before each window
	// (the traced pass installs its root spans this way).
	wrap func(blockdev.Device) blockdev.Device
	// setupTook is how long the tenant-visible part of set-up took.
	setupTook time.Duration
	// legacy, fwd and passive carry the same traffic over a direct
	// attachment, MB-FWD and a passive relay on the same cloud (paper_4k's
	// traced pass only).
	legacy, fwd, passive *rig
}

func (r *rig) close() { r.lab.close() }

func (r *rig) wrapped(dev blockdev.Device) blockdev.Device {
	if r.wrap != nil {
		return r.wrap(dev)
	}
	return dev
}

// env is what set-up needs from the command line.
type env struct {
	seed      int64
	stateRoot string
	// relays asks a workload that has them (paper_4k) for its LEGACY,
	// MB-FWD and passive-relay attachments too: the traced pass reports the
	// ratios between them.
	relays bool
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name     string
	regime   regime
	why      string
	scenario scenario
	// traffic drives the chain; with files set the file client does.
	traffic traffic
	files   bool
	// relays: the traced pass also measures the same traffic over LEGACY,
	// MB-FWD and the passive relay, on the same cloud (Figures 7 and 8).
	relays bool
}

// The names of the boxes the checks and the traced pass look up.
const (
	monitorBox   = "mon"
	replicateBox = "cas"
)

const (
	chainVolume     = 64 << 20
	replicateVolume = 16 << 20 // Apply scans the backends; see README pitfall 2
	ioSpan          = 8 << 20
)

func activeEncryption(r regime, extra map[string]string) scenario {
	return scenario{boxes: []policy.MiddleBoxSpec{encryptionBox(r, policy.ModeActive, extra)}, volumeBytes: chainVolume}
}

// durableEncryption is activeEncryption with a crash-durable journal, as an
// instance group of one with room for its replacement: RecoverInstance
// works on groups.
func durableEncryption() scenario {
	sc := activeEncryption(regimeZero, map[string]string{"durableJournal": "true"})
	sc.boxes[0].MinInstances, sc.boxes[0].MaxInstances = 1, 2
	sc.stateful = true
	return sc
}

var workloads = []workload{
	{
		name: "mem_4k", regime: regimeZero,
		why:      "4 KiB through one active encryption relay with an in-memory journal: per-command cost (PDU codec, early ack, journal append, pipe hand-offs) dominates",
		scenario: activeEncryption(regimeZero, nil),
		traffic:  traffic{ioBytes: 4096, readShare: 0.5, clients: 2, spanBytes: ioSpan},
	},
	{
		name: "mem_64k", regime: regimeZero,
		why:      "64 KiB through the same chain: per-byte cost (copies, AES-CTR, MTU framing, burst negotiation) dominates, so a per-command win should barely move it",
		scenario: activeEncryption(regimeZero, nil),
		traffic:  traffic{ioBytes: 64 * 1024, readShare: 0.5, clients: 1, spanBytes: ioSpan},
	},
	{
		name: "wal_4k", regime: regimeZero,
		why:      "same relay with a crash-durable journal fsynced per append: wal and DurableJournal do the write work and none of the read work; ends with kill, recover, verify",
		scenario: durableEncryption(),
		traffic:  traffic{ioBytes: 4096, readShare: 0.3, clients: 2, spanBytes: ioSpan},
	},
	{
		name: "replicate_4k", regime: regimeZero,
		why: "content-addressed replication to three backends with 25% repeated payloads: hashing, dispatch WAL, fan-out and quorum wait dominate; ends with kill, replay, scrub, convergence",
		scenario: scenario{
			boxes: []policy.MiddleBoxSpec{{
				Name: replicateBox, Type: policy.TypeReplicate, Host: "compute3",
				Params: regimeZero.relayParams(map[string]string{"replicaBackends": "3", "scrubInterval": "0"}),
			}},
			volumeBytes: replicateVolume,
			stateful:    true,
		},
		traffic: traffic{ioBytes: 4096, readShare: 0.3, clients: 2, spanBytes: ioSpan, dupShare: 0.25},
	},
	{
		name: "monitor_fs", regime: regimeZero,
		why: "PostMark-style file churn on extfs through the paper's [access-monitor, encryption] bundle: the only run of semantic, monitor and extfs and of a two-box chain",
		scenario: scenario{
			boxes: []policy.MiddleBoxSpec{
				{Name: monitorBox, Type: policy.TypeMonitor, Host: "compute3", Params: regimeZero.relayParams(nil)},
				encryptionBox(regimeZero, policy.ModeActive, nil),
			},
			volumeBytes: chainVolume,
		},
		files: true,
	},
	{
		name: "paper_4k", regime: regimeLab,
		why:      "4 KiB through the active relay under the calibrated lab delays (Figures 7/8): modelled waits dominate, so code speed-ups should not move it while structural changes do",
		scenario: activeEncryption(regimeLab, nil),
		traffic:  traffic{ioBytes: 4096, readShare: 0.5, clients: 2, spanBytes: ioSpan},
		relays:   true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setup builds the workload's cloud and attaches its chain.
func (w workload) setup(e env) (*rig, error) {
	stateRoot := ""
	if w.scenario.stateful {
		stateRoot = e.stateRoot
	}
	start := time.Now()
	l, err := newLab(w.regime, stateRoot)
	if err != nil {
		return nil, err
	}
	rg, err := w.attachAll(l, e, start)
	if err != nil {
		l.close()
		return nil, err
	}
	return rg, nil
}

func (w workload) attachAll(l *lab, e env, start time.Time) (*rig, error) {
	var rg *rig
	var err error
	if w.files {
		rg, err = fileRigOn(l, e, w.scenario)
	} else {
		rg, err = blockRigOn(l, e, w.scenario, w.traffic)
	}
	if err != nil {
		return nil, err
	}
	// What the tenant waits for ends here; the rest is the benchmark's.
	rg.setupTook = time.Since(start)
	if !w.relays || !e.relays {
		return rg, nil
	}
	if rg.legacy, err = blockRigOn(l, e, scenario{volumeBytes: chainVolume}, w.traffic); err != nil {
		return nil, fmt.Errorf("LEGACY attachment: %w", err)
	}
	fwd := scenario{boxes: []policy.MiddleBoxSpec{{Name: "fwd", Type: policy.TypeForward, Host: "compute3"}}, volumeBytes: chainVolume}
	if rg.fwd, err = blockRigOn(l, e, fwd, w.traffic); err != nil {
		return nil, fmt.Errorf("MB-FWD attachment: %w", err)
	}
	passive := scenario{boxes: []policy.MiddleBoxSpec{encryptionBox(w.regime, policy.ModePassive, nil)}, volumeBytes: chainVolume}
	if rg.passive, err = blockRigOn(l, e, passive, w.traffic); err != nil {
		return nil, fmt.Errorf("passive-relay attachment: %w", err)
	}
	return rg, nil
}

// blockRigOn attaches sc on l and drives tr against it.
func blockRigOn(l *lab, e env, sc scenario, tr traffic) (*rig, error) {
	att, err := l.attach(sc)
	if err != nil {
		return nil, err
	}
	clients := newBlockClients(tr, e.seed)
	rg := &rig{lab: l, att: att}
	for _, c := range clients {
		rg.recs = append(rg.recs, c.rec)
	}
	rg.run = func(d time.Duration) time.Duration {
		return runBlock(rg.wrapped(att.device()), clients, d)
	}
	rg.check = func() checkResult { return checkBlock(rg, sc, clients) }
	return rg, nil
}

// fileRigOn attaches sc on l, formats it through the chain and drives the
// file client against it. Ops are the block I/Os the file system issues.
func fileRigOn(l *lab, e env, sc scenario) (*rig, error) {
	att, err := l.attach(sc)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	rg := &rig{lab: l, att: att, recs: []*recorder{rec}}
	// The file system keeps one device for life, so the traced pass swaps
	// what is underneath it instead of wrapping per window.
	sw := &switchDev{Device: att.dev}
	fs, err := extfs.Mkfs(&timedDev{Device: sw, rec: rec}, extfs.Options{})
	if err != nil {
		return nil, fmt.Errorf("mkfs through the chain: %w", err)
	}
	fc, err := newFileClient(fs, e.seed, rec)
	if err != nil {
		return nil, err
	}
	rg.run = func(d time.Duration) time.Duration {
		sw.Device = rg.wrapped(att.dev)
		return fc.run(d)
	}
	rg.check = func() checkResult { return checkMonitor(rg, fc) }
	return rg, nil
}

// switchDev lets the device under a mounted file system be replaced
// between windows.
type switchDev struct{ blockdev.Device }
