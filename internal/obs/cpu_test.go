package obs

import (
	"testing"
	"time"
)

func TestCPUAccountChargeAndQuery(t *testing.T) {
	a := NewCPUAccount()
	a.Charge("cipher", 10*time.Millisecond)
	a.Charge("cipher", 5*time.Millisecond)
	a.Charge("io", 2*time.Millisecond)
	if got, want := a.Busy("cipher"), 15*time.Millisecond; got != want {
		t.Errorf("Busy(cipher) = %v, want %v", got, want)
	}
	comps := a.Components()
	if len(comps) != 2 || comps["io"] != 2*time.Millisecond {
		t.Errorf("Components() = %v, want cipher 15ms and io 2ms", comps)
	}
	// Mutating the copy must not affect the account.
	comps["cipher"] = 0
	if got := a.Busy("cipher"); got != 15*time.Millisecond {
		t.Errorf("Busy(cipher) after mutating copy = %v, want 15ms", got)
	}
}

func TestCPUAccountNegativeAndZeroCharge(t *testing.T) {
	a := NewCPUAccount()
	a.Charge("x", 0)
	a.Charge("x", -time.Second)
	if got := a.Busy("x"); got != 0 {
		t.Errorf("Busy(x) = %v, want 0", got)
	}
}

func TestCPUAccountUtilization(t *testing.T) {
	a := NewCPUAccount()
	a.Charge("x", time.Hour) // enormous vs. wall time
	if u := a.Utilization("x"); u <= 1 {
		t.Errorf("Utilization = %v, want > 1 for overloaded component", u)
	}
	a.Reset()
	if got := len(a.Components()); got != 0 {
		t.Errorf("%d components after Reset, want 0", got)
	}
}
