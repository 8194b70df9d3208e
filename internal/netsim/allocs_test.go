//go:build !race

// The race detector instruments allocations; this count only holds on plain
// builds.

package netsim

import "testing"

// TestUnmodelledPipeCycleAllocFree: once the frame queue and the frame pool
// are warm, moving a 4 KiB PDU (header + payload, the vectored form the iSCSI
// layer sends) across an unmodelled pipe allocates nothing, whether the
// receiver copies the frame out or takes it whole and releases it.
func TestUnmodelledPipeCycleAllocFree(t *testing.T) {
	p := newFramePipe(PathCost{}, 8192, nil)
	hdr, payload := make([]byte, 48), make([]byte, 4096)
	vec := [][]byte{hdr, payload}
	sink := make([]byte, 8192)
	for _, c := range []struct {
		name    string
		receive func() int
	}{
		{"read", func() int {
			n, err := p.read(sink)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}},
		{"take", func() int {
			f, _, err := p.take()
			if err != nil || f == nil {
				t.Fatalf("take = %v, %v", f, err)
			}
			n := len(f.B)
			f.Release()
			return n
		}},
	} {
		cycle := func() {
			if _, err := p.writeBufs(vec); err != nil {
				t.Fatal(err)
			}
			if n := c.receive(); n != len(hdr)+len(payload) {
				t.Fatalf("%s got %d bytes", c.name, n)
			}
		}
		for i := 0; i < 16; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Errorf("write+%s cycle allocates %.1f objects, want 0", c.name, avg)
		}
	}
}
