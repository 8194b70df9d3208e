package faults

import (
	"errors"
	"testing"
	"time"

	"repro/internal/xerr"
)

func TestDiskFullQuota(t *testing.T) {
	d := NewDiskFull(100)
	if err := d.Consume(60); err != nil {
		t.Fatalf("consume 60/100: %v", err)
	}
	if err := d.Consume(50); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("consume past quota: got %v, want ErrDiskFull", err)
	}
	if got := d.used; got != 60 {
		t.Fatalf("failed consume charged bytes: used = %d, want 60", got)
	}
	if xerr.Classify(ErrDiskFull) != xerr.Exhausted {
		t.Fatal("ErrDiskFull must be classed Exhausted")
	}
	// Release is the reclaim path: freed space makes the write admit again.
	d.Release(30)
	if err := d.Consume(50); err != nil {
		t.Fatalf("consume after release: %v", err)
	}
	// Grow is the pressure-release step.
	if err := d.Consume(100); err == nil {
		t.Fatal("expected full")
	}
	d.Grow(100)
	if err := d.Consume(100); err != nil {
		t.Fatalf("consume after grow: %v", err)
	}
}

func TestDiskFullReleaseClamps(t *testing.T) {
	d := NewDiskFull(10)
	if err := d.Consume(5); err != nil {
		t.Fatal(err)
	}
	d.Release(500)
	if got := d.used; got != 0 {
		t.Fatalf("release over-refunded: used = %d", got)
	}
}

func TestSlowBackendPaces(t *testing.T) {
	// 1 MiB/s with a 4 KiB burst: the first 4 KiB is free, the next draws
	// debt worth ~4ms.
	p := NewSlowBackend(1<<20, 4096)
	if d := p.Delay(4096); d != 0 {
		t.Fatalf("burst draw delayed %v, want 0", d)
	}
	d := p.Delay(4096)
	if d < time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("post-burst delay %v outside sane range", d)
	}
}

func TestSlowBackendZeroDisabled(t *testing.T) {
	var p *SlowBackend
	if d := p.Delay(1 << 20); d != 0 {
		t.Fatalf("nil pacer delayed %v", d)
	}
	p2 := NewSlowBackend(0, 0)
	if d := p2.Delay(1 << 20); d != 0 {
		t.Fatalf("rate-0 pacer delayed %v", d)
	}
}
