//go:build !race

// The race detector instruments allocations; this count only holds on plain
// builds.

package netsim

import "testing"

// TestUnmodelledPipeCycleAllocFree: once the frame queue and the frame pool
// are warm, moving a 4 KiB PDU (header + payload, the vectored form the iSCSI
// layer sends) across an unmodelled pipe allocates nothing.
func TestUnmodelledPipeCycleAllocFree(t *testing.T) {
	p := newFramePipe(PathCost{}, 8192, nil)
	hdr, payload := make([]byte, 48), make([]byte, 4096)
	vec := [][]byte{hdr, payload}
	sink := make([]byte, 8192)
	cycle := func() {
		if _, err := p.writeBufs(vec); err != nil {
			t.Fatal(err)
		}
		if n, err := p.read(sink); err != nil || n != len(hdr)+len(payload) {
			t.Fatalf("read = %d, %v", n, err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("write+read cycle allocates %.1f objects, want 0", avg)
	}
}
