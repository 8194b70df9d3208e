package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/scrub"
	"repro/internal/semantic"
)

// checkResult is the outcome of a workload's end-of-run checks. Every
// check counts as one attempted operation and, when it fails, one failed
// one; verification reads count individually.
type checkResult struct {
	attempted, failed int
	// lostAcked is the number of acknowledged writes not readable through
	// the recovered chain after a crash (wal_4k, replicate_4k).
	lostAcked int
	// replayed is how many journal records the recovery delivered.
	replayed int
	// scrubRepaired is how many replica-slots the post-crash scrub pass
	// had to rewrite before the backends agreed.
	scrubRepaired int
	// createMiscount and deleteMiscount are how far the monitor's
	// reconstructed counts are from the operations performed.
	createMiscount, deleteMiscount int
	notes                          []string
}

func (c *checkResult) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checkResult) verify(rg *rig, clients []*blockClient) int {
	checked, lost := verifyAll(rg.att.device(), clients)
	c.attempted += checked
	c.failed += lost
	if lost > 0 {
		c.notes = append(c.notes, fmt.Sprintf("%d of %d slots do not hold their last acknowledged write", lost, checked))
	}
	return lost
}

func encrypted(sc scenario) bool {
	for _, b := range sc.boxes {
		if b.Type == policy.TypeEncryption {
			return true
		}
	}
	return false
}

// checkAtRest spot-checks an encrypted chain: the block as stored on the
// provider's volume must differ from the plaintext the VM wrote.
func (c *checkResult) checkAtRest(rg *rig, plain []byte, lba uint64) {
	if err := rg.att.device().Flush(); err != nil {
		c.expect(false, "flush before at-rest check: %v", err)
		return
	}
	vol, err := rg.lab.cloud.Volumes.Get(rg.att.volID)
	if err != nil {
		c.expect(false, "at-rest check: %v", err)
		return
	}
	raw := make([]byte, len(plain))
	if err := vol.Device().ReadAt(raw, lba); err != nil {
		c.expect(false, "at-rest read: %v", err)
		return
	}
	c.expect(!bytes.Equal(raw, plain), "block at lba %d is stored in plaintext behind an encryption box", lba)
	c.expect(!bytes.Equal(raw, make([]byte, len(raw))), "block at lba %d never reached the volume", lba)
}

func checkBlock(rg *rig, sc scenario, clients []*blockClient) checkResult {
	var c checkResult
	if c0 := clients[0]; encrypted(sc) && len(c0.written) > 0 {
		slot := c0.written[0]
		c0.fill(c0.want, c0.lastSeq[slot])
		c.checkAtRest(rg, c0.want, c0.lba(slot))
	}
	c.verify(rg, clients)
	if !sc.stateful {
		return c
	}
	c.crashAndRecover(rg, sc.boxes[0], clients)
	if sc.boxes[0].Type == policy.TypeReplicate {
		c.converged(rg, sc.boxes[0].Name)
	}
	return c
}

// crashAndRecover kills the serving instance, recovers it through the
// platform and counts acknowledged writes the recovered chain cannot read.
//
// A relay with a durable journal is killed under write load, so the journal
// holds acknowledged-but-unapplied entries. A relay whose early-ack journal
// is in memory (replicate_4k) promises nothing for those, so it is flushed
// first and the kill tests the box's dispatch journal: writes the primary
// has and the slower backends may not.
//
// Relay.Kill (and Journal.Kill under it) models the crash: buffered bytes
// are not discarded, so this checks replay, not fsync placement.
func (c *checkResult) crashAndRecover(rg *rig, box policy.MiddleBoxSpec, clients []*blockClient) {
	mb := box.Name
	dep := rg.att.dep
	serving := dep.Group(mb)[0]
	dev := rg.att.device()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *blockClient) {
			defer wg.Done()
			cl.writeUntilError(dev)
		}(cl)
	}
	time.Sleep(30 * time.Millisecond)
	var err error
	if !box.DurableJournal() {
		for _, cl := range clients {
			cl.stop.Store(true)
		}
		wg.Wait()
		err = dev.Flush()
	}
	if err == nil {
		err = rg.lab.cloud.CrashMiddleBox(serving.Name)
	}
	wg.Wait()
	if err != nil {
		c.expect(false, "crash %s: %v", serving.Name, err)
		return
	}
	_, replayed, err := dep.RecoverInstance(mb, serving.Name)
	if err != nil {
		c.expect(false, "recover %s: %v", serving.Name, err)
		return
	}
	c.replayed = replayed
	c.lostAcked = c.verify(rg, clients)
}

// converged requires every backend of the replicate box to hold the same
// logical image once the box has flushed and drained and one scrub pass has
// run. The scrub is part of the design being checked: the box commits a
// journal record when a quorum of backends has it, so a crash can leave the
// slowest backend without a committed write that replay will not resend,
// and the scrubber (off during the measured windows) is what repairs it.
func (c *checkResult) converged(rg *rig, mb string) {
	if err := rg.att.device().Flush(); err != nil {
		c.expect(false, "flush before convergence check: %v", err)
		return
	}
	box := rg.att.dep.Replicator(mb)
	deadline := time.Now().Add(10 * time.Second)
	for box == nil || !box.Drained() {
		if time.Now().After(deadline) {
			c.expect(false, "replicate box never drained")
			return
		}
		time.Sleep(time.Millisecond)
		box = rg.att.dep.Replicator(mb)
	}
	targets := box.Targets()
	replicas := make([]scrub.Replica, len(targets))
	for i, t := range targets {
		replicas[i] = t
	}
	store := targets[0].Store()
	st, err := scrub.New(scrub.Config{
		Name: "bench-check", Replicas: replicas,
		Slots: store.Slots(), ChunkSize: store.ChunkSize(),
	}).RunPass()
	c.expect(err == nil && st.Unrepairable == 0, "scrub after recovery: err %v, %d slots unrepairable", err, st.Unrepairable)
	c.scrubRepaired = int(st.Repaired)
	first, err := store.LogicalHash()
	c.expect(err == nil, "backend %s hash: %v", targets[0].Name(), err)
	for _, t := range targets[1:] {
		h, err := t.Store().LogicalHash()
		c.expect(err == nil && h == first, "backend %s diverges from %s (err %v)", t.Name(), targets[0].Name(), err)
	}
}

// miscountTolerance is the share of creates (or deletes) the monitor may get
// wrong. Its tap sits under the active relay's write-back, which applies
// disjoint writes in parallel, so the inode-table and directory writes of
// one operation can reach it in either order and about one create in
// forty thousand is reconstructed as something else. A broken parser
// misses wholesale.
const miscountTolerance = 0.005

// checkMonitor compares the creates and deletes the monitor reconstructed
// from block traffic with the operations the file client performed.
func checkMonitor(rg *rig, fc *fileClient) checkResult {
	var c checkResult
	if err := fc.fs.Sync(); err != nil {
		c.expect(false, "fs sync: %v", err)
	}
	// Block 0 of the file system is the superblock: known, non-zero
	// plaintext to look for at rest.
	plain := make([]byte, 4096)
	if err := rg.att.device().ReadAt(plain, 0); err != nil {
		c.expect(false, "read superblock: %v", err)
	} else {
		c.checkAtRest(rg, plain, 0)
	}
	var creates, deletes int
	for _, ev := range rg.att.dep.Monitors[monitorBox].Log() {
		switch ev.Type {
		case semantic.EvCreate:
			creates++
		case semantic.EvDelete:
			deletes++
		}
	}
	c.createMiscount = abs(creates - fc.creates - fc.mkdirs)
	c.deleteMiscount = abs(deletes - fc.deletes)
	c.expect(float64(c.createMiscount) <= miscountTolerance*float64(fc.creates), "monitor reconstructed %d creates, client performed %d (+%d mkdir)", creates, fc.creates, fc.mkdirs)
	c.expect(float64(c.deleteMiscount) <= miscountTolerance*float64(fc.deletes), "monitor reconstructed %d deletes, client performed %d", deletes, fc.deletes)
	report, err := fc.fs.Check()
	c.expect(err == nil && report.Ok(), "fsck after the run: err %v, report %+v", err, report)
	return c
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
