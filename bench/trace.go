package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/obs"
)

// rootStage names the bench-side span opened around every VM device call;
// everything the program records for that command hangs under it.
const rootStage = "bench"

// traceConfig keeps every other command of the traced window, up to a ring
// of 4096. (SampleEvery 1 would keep none: the registry samples on
// seen%N == 1.)
var traceConfig = obs.TraceConfig{SampleEvery: 2, MaxSampled: 4096, MaxSpans: 64}

// tracedDev opens the root span and binds it to the calling goroutine, so
// the initiator's span and all below it become its descendants.
type tracedDev struct{ blockdev.Device }

func (d tracedDev) ReadAt(p []byte, lba uint64) error {
	sp := obs.Default().StartTraced(rootStage, "read", len(p))
	prev, had := obs.Bind(sp.Context())
	err := d.Device.ReadAt(p, lba)
	obs.Restore(prev, had)
	sp.End()
	return err
}

func (d tracedDev) WriteAt(p []byte, lba uint64) error {
	sp := obs.Default().StartTraced(rootStage, "write", len(p))
	prev, had := obs.Bind(sp.Context())
	err := d.Device.WriteAt(p, lba)
	obs.Restore(prev, had)
	sp.End()
	return err
}

// station groups the program's stage names into the layers the metrics are
// named after.
func station(stage string) string {
	switch {
	case stage == rootStage:
		return rootStage
	case stage == obs.StageInitiator:
		return "initiator"
	case strings.HasPrefix(stage, "gateway."):
		return "gateway"
	case stage == obs.StageMBForward:
		return "mbfwd"
	case stage == obs.StageTarget:
		return "target"
	case strings.HasPrefix(stage, "relay.") && strings.HasSuffix(stage, ".service"):
		return "service"
	case strings.HasPrefix(stage, "relay.") && strings.HasSuffix(stage, ".forward"):
		return "forward"
	}
	return "other"
}

// selfTimes is the median self time per command of each station, by
// direction, over the sampled traces, and the share of the root spans the
// stations below them account for.
type selfTimes struct {
	us       map[string]float64 // "<station>.<dir>" -> median µs per command
	traces   int
	coverage float64
}

// selfTime computes station self times: a span's duration minus the part of
// its interval its children cover. A child that runs on after its parent
// ended (an active relay's write-back forward) only counts while the parent
// was open, so asynchronous work is not charged to its parent twice. Tail
// exemplars are left out: they are the slowest commands by construction.
func selfTime(traces []obs.TraceRecord) selfTimes {
	st := selfTimes{us: map[string]float64{}}
	perTrace := map[string][]float64{}
	var rootDur, rootSelf time.Duration
	for _, tr := range traces {
		if tr.Slow || tr.Root != rootStage {
			continue
		}
		byID := make(map[uint64]obs.SpanRecord, len(tr.Spans))
		dir := ""
		for _, sp := range tr.Spans {
			byID[sp.ID] = sp
			if sp.Stage == rootStage {
				dir = sp.Dir
			}
		}
		covered := make(map[uint64]time.Duration, len(tr.Spans))
		for _, sp := range tr.Spans {
			parent, ok := byID[sp.Parent]
			if !ok {
				continue
			}
			start, end := sp.Start, sp.Start.Add(sp.Dur)
			if pe := parent.Start.Add(parent.Dur); end.After(pe) {
				end = pe
			}
			if start.Before(parent.Start) {
				start = parent.Start
			}
			if end.After(start) {
				covered[sp.Parent] += end.Sub(start)
			}
		}
		st.traces++
		self := map[string]time.Duration{}
		for _, sp := range tr.Spans {
			d := sp.Dur - covered[sp.ID]
			if d < 0 {
				d = 0 // children overlapping each other
			}
			self[station(sp.Stage)] += d
			if sp.Stage == rootStage {
				rootDur += sp.Dur
				rootSelf += d
			}
		}
		for stn, d := range self {
			perTrace[stn+"."+dir] = append(perTrace[stn+"."+dir], float64(d.Nanoseconds())/1e3)
		}
	}
	for k, v := range perTrace {
		st.us[k] = medianOf(v, "us").Value
	}
	if rootDur > 0 {
		st.coverage = 1 - float64(rootSelf)/float64(rootDur)
	}
	return st
}

// readCounters reads the program's own counts the traced window is
// bracketed with. One by one: Registry.Snapshot would also sort every stage
// histogram, millions of samples by the end of a run.
func readCounters(names []string) map[string]int64 {
	c := map[string]int64{}
	for _, n := range names {
		c[n] = obs.Default().Counter(n).Value()
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// harnessSpan is the bench-side record of one direct-harness batch.
type harnessSpan struct {
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
}

type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Traces   []obs.TraceRecord `json:"traces"`
	Harness  []harnessSpan     `json:"harness,omitempty"`
}

// tracedPass measures the in-situ per-layer metrics: tails and the overhead
// baseline from an untraced half, station self times and the program's
// counters from a traced half. It returns the sampled traces too.
func tracedPass(w workload, e env, tm timing) (result, []obs.TraceRecord, error) {
	obs.Default().DisableTracing()
	obs.Default().Reset()
	e.relays = true
	rg, err := w.setup(e)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	defer rg.close()
	res := result{Metrics: map[string]metric{}}
	window(rg, tm.warmup)
	untracedIOPS := res.untracedHalf(rg, tm.measure/2)
	traces := res.tracedHalf(rg, tm.measure/2, untracedIOPS)
	chk := res.finish(w, rg)
	res.put("middlebox.lost_acked_writes", "count", float64(chk.lostAcked))
	res.put("middlebox.replayed_records", "count", float64(chk.replayed))
	res.put("scrub.repaired_after_crash", "count", float64(chk.scrubRepaired))
	res.put("semantic.create_miscount", "count", float64(chk.createMiscount))
	res.put("semantic.delete_miscount", "count", float64(chk.deleteMiscount))
	return res, traces, nil
}

// latencies accumulates the samples of several windows of one attachment.
type latencies struct{ writeNs, readNs []int64 }

func (l *latencies) add(s sample) {
	l.writeNs = append(l.writeNs, s.writeNs...)
	l.readNs = append(l.readNs, s.readNs...)
}

func (l *latencies) p50() (write, read float64) {
	slices.Sort(l.writeNs)
	slices.Sort(l.readNs)
	return percentile(l.writeNs, 0.5), percentile(l.readNs, 0.5)
}

// untracedHalf runs the workload untraced for d in three rounds and reports
// the tails. On paper_4k every round also drives the LEGACY, MB-FWD and
// passive-relay attachments, interleaved with the active one so that drift
// hits all four alike, and the ratios of the active, MB-FWD and passive
// p50s to LEGACY's are reported (0 elsewhere). It returns the median iops of
// the rounds.
func (res *result) untracedHalf(rg *rig, d time.Duration) float64 {
	const rounds = 3
	slice := d / rounds
	others := []*rig{rg.legacy, rg.fwd, rg.passive}
	if rg.fwd != nil {
		slice /= time.Duration(len(others) + 1)
		for _, o := range others {
			window(o, slice/4) // warm-up
		}
	}
	var iops []float64
	var active, legacy, fwd, passive latencies
	for r := 0; r < rounds; r++ {
		if rg.fwd != nil {
			for i, l := range []*latencies{&legacy, &fwd, &passive} {
				s := window(others[i], slice)
				res.count(s)
				l.add(s)
			}
		}
		s := window(rg, slice)
		res.count(s)
		active.add(s)
		iops = append(iops, s.iops)
	}
	activeW, activeR := active.p50()
	res.put("initiator.write_p99_us", "us", percentile(active.writeNs, 0.99)/1e3)
	res.put("initiator.read_p99_us", "us", percentile(active.readNs, 0.99)/1e3)
	for name, v := range map[string][]int64{"initiator.write_tail_us": active.writeNs, "initiator.read_tail_us": active.readNs} {
		t, q := tail(v)
		res.Metrics[name] = metric{Value: t / 1e3, Unit: "us", note: fmt.Sprintf("p%g of %d samples", q*100, len(v))}
	}
	legacyW, legacyR := legacy.p50()
	fwdW, fwdR := fwd.p50()
	passiveW, passiveR := passive.p50()
	res.put("middlebox.active_vs_legacy_write", "ratio", ratio(activeW, legacyW))
	res.put("middlebox.active_vs_legacy_read", "ratio", ratio(activeR, legacyR))
	res.put("middlebox.passive_vs_legacy_write", "ratio", ratio(passiveW, legacyW))
	res.put("middlebox.passive_vs_legacy_read", "ratio", ratio(passiveR, legacyR))
	res.put("splice.fwd_vs_legacy_write", "ratio", ratio(fwdW, legacyW))
	res.put("splice.fwd_vs_legacy_read", "ratio", ratio(fwdR, legacyR))
	return medianOf(iops, "1/s").Value
}

// tracedHalf runs the workload for d with tracing on and a root span around
// every VM device call, and reports station self times and the deltas of
// the program's counters over the window.
func (res *result) tracedHalf(rg *rig, d time.Duration, untracedIOPS float64) []obs.TraceRecord {
	names := counterNames(rg)
	before := readCounters(names)
	eventsBefore := monitorEvents(rg)
	obs.Default().EnableTracing(traceConfig)
	rg.wrap = func(dev blockdev.Device) blockdev.Device { return tracedDev{dev} }
	traced := window(rg, d)
	rg.wrap = nil
	traces := obs.Default().Traces()
	obs.Default().DisableTracing()
	res.count(traced)
	after := readCounters(names)
	delta := func(name string) float64 { return float64(after[name] - before[name]) }

	st := selfTime(traces)
	for _, dir := range []string{"write", "read"} {
		res.put("initiator.self_"+dir+"_us", "us", st.us["initiator."+dir])
		res.put("splice.gateway_self_"+dir+"_us", "us", st.us["gateway."+dir]+st.us["mbfwd."+dir])
		res.put("middlebox.service_self_"+dir+"_us", "us", st.us["service."+dir])
		res.put("middlebox.forward_self_"+dir+"_us", "us", st.us["forward."+dir])
		res.put("target.self_"+dir+"_us", "us", st.us["target."+dir])
	}
	res.put("obs.trace_coverage", "ratio", st.coverage)
	res.put("obs.traces_sampled", "count", float64(st.traces))
	res.put("obs.trace_overhead_pct", "%", 100*(1-ratio(traced.iops, untracedIOPS)))
	res.put("obs.metrics_dropped", "count", float64(obs.Default().Counter(obs.DroppedMetric).Value()))

	// Flows are looked up and rewritten when a connection is dialed, so
	// these two count since set-up, not over the traced window.
	hits, misses := float64(after["sdn.flow_lookup.hits"]), float64(after["sdn.flow_lookup.misses"])
	res.put("sdn.flow_hit_ratio", "ratio", ratio(hits, hits+misses))
	res.put("nat.rewrites", "count", float64(after["nat.rewrites"]))

	writes := float64(len(traced.writeNs))
	res.put("wal.appends_per_write", "ratio", ratio(delta("wal.appends"), writes))
	res.put("wal.fsyncs_per_write", "ratio", ratio(delta("wal.fsyncs"), writes))
	res.put("middlebox.journal_high_bytes", "bytes", float64(obs.Default().Gauge("journal.used_bytes").High()))
	box := replicateSeries(rg)
	res.put("replicate.dispatches_per_write", "ratio", ratio(delta(box+"dispatches"), writes))
	res.put("replicate.stored_bytes_per_user_byte", "ratio", ratio(delta(box+"bytes_stored"), delta(box+"bytes_logical")))
	res.put("replicate.quorum_misses", "count", delta(box+"quorum_misses"))
	res.put("replicate.hedged", "count", delta(box+"hedged"))
	res.put("cas.dedup_hit_ratio", "ratio", ratio(delta(box+"dedup_hits"), delta(box+"dedup_hits")+delta(box+"bytes_stored")/chunkBytes))
	events := monitorEvents(rg)
	res.put("semantic.events_per_io", "ratio", ratio(float64(events-eventsBefore), float64(traced.ops)))
	res.put("monitor.log_events", "count", float64(events))
	return traces
}

// counterNames lists the program counters the traced window brackets.
func counterNames(rg *rig) []string {
	names := []string{"sdn.flow_lookup.hits", "sdn.flow_lookup.misses", "nat.rewrites", "wal.appends", "wal.fsyncs"}
	box := replicateSeries(rg)
	for _, s := range []string{"dispatches", "bytes_stored", "bytes_logical", "quorum_misses", "hedged", "dedup_hits"} {
		names = append(names, box+s)
	}
	return names
}

// replicateSeries is the obs prefix of the rig's replicate box; a prefix
// no series has when the rig has none.
func replicateSeries(rg *rig) string {
	if dep := rg.att.dep; dep != nil {
		if g := dep.Group(replicateBox); len(g) > 0 {
			return "replicate." + g[0].Name + "."
		}
	}
	return "replicate.none."
}

// monitorEvents is how many events the rig's monitor has logged (0 without
// a monitor).
func monitorEvents(rg *rig) int {
	if dep := rg.att.dep; dep != nil {
		if mon := dep.Monitors[monitorBox]; mon != nil {
			return len(mon.Reconstructor().Events())
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
