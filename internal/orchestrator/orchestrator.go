// Package orchestrator is StorM's scale-out control loop: it watches each
// managed middle-box instance group's copy-path utilization (the per-relay
// busy-time counters published through internal/obs) and elastically
// resizes the group within its policy bounds. Scale-up adds an instance and
// rehashes only new flows to it — established connections keep their
// serving member (flow affinity). Scale-down is zero-loss: the loop first
// drains the least-loaded member (no new flows, no new sessions), waits for
// its sessions to log out and its write-back journal to empty, and only
// then removes the instance from the steering group and tears the VM down.
package orchestrator

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config tunes the control loop.
type Config struct {
	// Platform is the StorM control plane owning the deployments.
	Platform *core.Platform
	// Obs is the metrics registry the relays report into and the loop
	// publishes its gauges to (obs.Default() when nil).
	Obs *obs.Registry
	// Interval is the reconcile period of the Start loop (default 250ms).
	Interval time.Duration
	// CooldownRounds is how many reconcile passes to hold after a scale
	// event before deciding again (default 2), letting utilization settle.
	CooldownRounds int
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// The utilization band of the scale decision: the loop grows a group by one
// when a member reaches scaleUpUtil, and drains one member when every member
// sits at or below scaleDownUtil.
const (
	scaleUpUtil   = 0.75
	scaleDownUtil = 0.15
)

// managedGroup is the loop's per-group state.
type managedGroup struct {
	tenant, mb string
	lastBusy   map[string]int64 // busy_ns counter at the previous pass
	lastTime   time.Time
	cooldown   int
	draining   string // member being drained, "" if none

	// Overload edge detection (replicate groups): last pass's breaker
	// state, so transitions emit exactly one event each way.
	breakerOpen bool
}

// Orchestrator runs the reconcile loop over its managed groups.
type Orchestrator struct {
	cfg Config

	mu     sync.Mutex
	groups map[string]*managedGroup // key "tenant/mb"
	stop   chan struct{}
	done   chan struct{}
}

// New builds an orchestrator; call Manage to enroll groups, then either
// Start the background loop or drive Reconcile directly.
func New(cfg Config) *Orchestrator {
	if cfg.Obs == nil {
		cfg.Obs = obs.Default()
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.CooldownRounds <= 0 {
		cfg.CooldownRounds = 2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Orchestrator{cfg: cfg, groups: make(map[string]*managedGroup)}
}

// Manage enrolls a tenant's scalable middle-box group.
func (o *Orchestrator) Manage(tenant, mb string) error {
	dep, ok := o.cfg.Platform.Deployment(tenant)
	if !ok {
		return fmt.Errorf("orchestrator: tenant %q has no deployment", tenant)
	}
	if _, _, err := dep.ScaleBounds(mb); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	key := tenant + "/" + mb
	if _, dup := o.groups[key]; dup {
		return fmt.Errorf("orchestrator: group %s already managed", key)
	}
	o.groups[key] = &managedGroup{
		tenant:   tenant,
		mb:       mb,
		lastBusy: make(map[string]int64),
		lastTime: o.cfg.Now(),
	}
	return nil
}

// Unmanage drops a group from the loop.
func (o *Orchestrator) Unmanage(tenant, mb string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.groups, tenant+"/"+mb)
}

// Reconcile runs one pass over every managed group. It is the loop body of
// Start, exposed so tests and callers can step the controller manually.
func (o *Orchestrator) Reconcile() {
	o.mu.Lock()
	groups := make([]*managedGroup, 0, len(o.groups))
	for _, g := range o.groups {
		groups = append(groups, g)
	}
	o.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].tenant+"/"+groups[i].mb < groups[j].tenant+"/"+groups[j].mb
	})
	for _, g := range groups {
		o.reconcileGroup(g)
	}
}

// reconcileGroup measures one group and applies at most one scale action.
func (o *Orchestrator) reconcileGroup(g *managedGroup) {
	dep, ok := o.cfg.Platform.Deployment(g.tenant)
	if !ok {
		// Deployment gone (torn down): stop managing it.
		o.Unmanage(g.tenant, g.mb)
		return
	}

	// Crashed members come first: a dead relay serves nothing, so the loop
	// replaces it immediately — outside the utilization state machine and
	// regardless of cooldown — keeping the group at its current size. The
	// replacement replays the crashed member's durable journals before any
	// flow rebinds to it.
	for _, ms := range dep.GroupStatus(g.mb) {
		if !ms.Crashed {
			continue
		}
		repl, replayed, err := dep.RecoverInstance(g.mb, ms.Name)
		if err != nil {
			o.cfg.Obs.Eventf("orchestrator", "recovery of crashed %s/%s member %s failed: %v", g.tenant, g.mb, ms.Name, err)
			return
		}
		o.cfg.Obs.Eventf("orchestrator", "replaced crashed %s/%s member %s with %s (%d journal records replayed)",
			g.tenant, g.mb, ms.Name, repl.Name, replayed)
		delete(g.lastBusy, ms.Name)
		if g.draining == ms.Name {
			g.draining = ""
		}
		g.cooldown = o.cfg.CooldownRounds
		return // one action per pass
	}

	// Re-drive recovery tails a transient failure left behind (backend
	// outage during journal replay, re-attach error): the crashed member is
	// already replaced and no longer reports Crashed, but its acknowledged
	// journaled writes are still owed a replay.
	if dep.PendingRecoveries(g.mb) > 0 {
		n, err := dep.RetryRecoveries(g.mb)
		if err != nil {
			o.cfg.Obs.Eventf("orchestrator", "pending recovery for %s/%s failed again: %v", g.tenant, g.mb, err)
		} else {
			o.cfg.Obs.Eventf("orchestrator", "completed pending recovery for %s/%s (%d journal records replayed)",
				g.tenant, g.mb, n)
		}
		return // one action per pass
	}

	// Finish an in-flight drain once the member has quiesced.
	if g.draining != "" {
		st, err := dep.DrainStatus(g.mb, g.draining)
		switch {
		case err != nil || !st.Draining:
			g.draining = "" // removed or un-drained behind our back
		case st.Sessions == 0 && st.JournalBytes == 0 && st.JournalPending == 0:
			if err := dep.FinishDrain(g.mb, g.draining); err != nil {
				o.cfg.Obs.Eventf("orchestrator", "finishing the drain of %s/%s member %s failed: %v", g.tenant, g.mb, g.draining, err)
			} else {
				o.cfg.Obs.Eventf("orchestrator", "scaled down %s/%s: drained %s", g.tenant, g.mb, g.draining)
				g.draining = ""
				g.cooldown = o.cfg.CooldownRounds
			}
		}
	}

	now := o.cfg.Now()
	elapsed := now.Sub(g.lastTime)
	g.lastTime = now
	status := dep.GroupStatus(g.mb)
	o.cfg.Obs.Gauge(fmt.Sprintf("orch.group.%s.%s.size", g.tenant, g.mb)).Set(int64(len(status)))
	o.trackOverload(g, status)

	utils := make([]float64, len(status))
	allMeasured := true
	for i, ms := range status {
		busy := o.cfg.Obs.Counter("relay." + ms.Name + ".busy_ns").Value()
		last, seen := g.lastBusy[ms.Name]
		g.lastBusy[ms.Name] = busy
		if !seen || elapsed <= 0 {
			allMeasured = false
			continue
		}
		threads := ms.CopyThreads
		if threads <= 0 {
			threads = 1
		}
		util := float64(busy-last) / (float64(elapsed.Nanoseconds()) * float64(threads))
		if util < 0 {
			util = 0
		}
		utils[i] = util
		o.cfg.Obs.Gauge("orch.member." + ms.Name + ".util_permille").Set(int64(util * 1000))
	}

	if g.draining != "" {
		return // one wind-down at a time
	}
	if g.cooldown > 0 {
		g.cooldown--
		return
	}
	if elapsed <= 0 || len(status) == 0 || !allMeasured {
		return // no decisions on members we have never measured
	}
	min, max, err := dep.ScaleBounds(g.mb)
	if err != nil {
		return
	}

	peak := 0.0
	for _, u := range utils {
		if u > peak {
			peak = u
		}
	}
	size := len(status)
	if peak >= scaleUpUtil && size < max {
		if err := dep.Scale(g.mb, size+1); err != nil {
			o.cfg.Obs.Eventf("orchestrator", "scale-up of %s/%s to %d failed: %v", g.tenant, g.mb, size+1, err)
			return
		}
		o.cfg.Obs.Eventf("orchestrator", "scaled up %s/%s to %d (peak util %.0f%%)", g.tenant, g.mb, size+1, peak*100)
		g.cooldown = o.cfg.CooldownRounds
		return
	}
	if size > min && peak <= scaleDownUtil {
		victim := pickVictim(status, utils)
		if victim == "" {
			return
		}
		if err := dep.BeginDrain(g.mb, victim); err != nil {
			o.cfg.Obs.Eventf("orchestrator", "draining %s/%s member %s failed: %v", g.tenant, g.mb, victim, err)
			return
		}
		o.cfg.Obs.Eventf("orchestrator", "draining %s/%s member %s (peak util %.0f%%)", g.tenant, g.mb, victim, peak*100)
		g.draining = victim
	}
}

// trackOverload surfaces replicate overload transitions as orchestrator
// events and a gauge: a backend circuit breaker opening or recovering.
// Edge-triggered, so a sustained brownout logs once on entry and once on
// exit rather than every reconcile pass.
func (o *Orchestrator) trackOverload(g *managedGroup, status []core.MemberStatus) {
	var overloaded int64 // 1 while any member has a breaker open
	for _, ms := range status {
		if ms.BreakerOpen {
			overloaded = 1
		}
	}
	if breaker := overloaded == 1; breaker != g.breakerOpen {
		g.breakerOpen = breaker
		if breaker {
			o.cfg.Obs.Eventf("orchestrator", "backend breaker open in %s/%s: replication degraded, scrubbing paused", g.tenant, g.mb)
		} else {
			o.cfg.Obs.Eventf("orchestrator", "backend breakers recovered in %s/%s", g.tenant, g.mb)
		}
	}
	o.cfg.Obs.Gauge(fmt.Sprintf("orch.group.%s.%s.overloaded", g.tenant, g.mb)).Set(overloaded)
}

// pickVictim chooses the member to drain: fewest sessions, then lowest
// utilization — the cheapest member to quiesce.
func pickVictim(status []core.MemberStatus, utils []float64) string {
	victim, vi := "", -1
	for i, ms := range status {
		if ms.Draining {
			continue
		}
		if vi < 0 ||
			ms.Sessions < status[vi].Sessions ||
			(ms.Sessions == status[vi].Sessions && utils[i] < utils[vi]) {
			victim, vi = ms.Name, i
		}
	}
	return victim
}

// Start runs Reconcile on the configured interval until Stop.
func (o *Orchestrator) Start() {
	o.mu.Lock()
	if o.stop != nil {
		o.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	o.stop, o.done = stop, done
	o.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(o.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				o.Reconcile()
			}
		}
	}()
}

// Stop halts the background loop and waits for the in-flight pass.
func (o *Orchestrator) Stop() {
	o.mu.Lock()
	stop, done := o.stop, o.done
	o.stop, o.done = nil, nil
	o.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
