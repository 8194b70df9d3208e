package initiator

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/iscsi"
	"repro/internal/xerr"
)

// TestLoginRefusalClass: Login returns the refusal's wire status as an xerr
// class, so whoever logs in again knows whether it can help — TargetRemoved
// (a draining relay) is Terminal, a TargetErr refusal is Transient.
func TestLoginRefusalClass(t *testing.T) {
	for _, tt := range []struct {
		name          string
		class, detail byte
		want          xerr.Class
	}{
		{"TargetRemoved", iscsi.LoginStatusInitiatorErr, iscsi.LoginDetailTargetRemoved, xerr.Terminal},
		{"OutOfResources", iscsi.LoginStatusTargetErr, iscsi.LoginDetailOutOfResources, xerr.Transient},
		{"ServiceUnavailable", iscsi.LoginStatusTargetErr, iscsi.LoginDetailServiceUnavailable, xerr.Transient},
	} {
		t.Run(tt.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer server.Close()
			fakeTarget(t, server, tt.class, tt.detail)
			_, err := Login(client, Config{InitiatorIQN: "i", TargetIQN: "t"})
			if !errors.Is(err, ErrLoginFailed) {
				t.Fatalf("Login err = %v, want ErrLoginFailed in the chain", err)
			}
			if got := xerr.Classify(err); got != tt.want {
				t.Fatalf("Login err %v classed %v, want %v", err, got, tt.want)
			}
		})
	}
}

// reattachAgainstRefusals runs the reattach loop for a secondary of a
// four-connection session whose later dials reach a target that refuses
// every login with the given wire status, and returns how many logins it
// tried. The session keeps serving on the connections it has.
func reattachAgainstRefusals(t *testing.T, class, detail byte) int32 {
	var attempts atomic.Int32
	sess, _ := mcsHarness(t, Config{DialConn: func() (net.Conn, error) {
		attempts.Add(1)
		client, server := net.Pipe()
		fakeTarget(t, server, class, detail)
		return client, nil
	}})
	sess.reattach(1)
	if err := sess.Write(0, make([]byte, 512), 512); err != nil {
		t.Fatalf("write after refused reattach: %v", err)
	}
	if got := sess.NumConns(); got != 4 {
		t.Fatalf("NumConns = %d after refused reattach, want 4", got)
	}
	return attempts.Load()
}

// TestTerminalLoginRefusalStopsRedial: a secondary's reattach stops at the
// first terminal refusal instead of burning its whole budget against a
// refusal that cannot change.
func TestTerminalLoginRefusalStopsRedial(t *testing.T) {
	if got := reattachAgainstRefusals(t, iscsi.LoginStatusInitiatorErr, iscsi.LoginDetailTargetRemoved); got != 1 {
		t.Fatalf("reattach tried %d logins against a terminal refusal, want 1", got)
	}
}

// TestTransientLoginRefusalKeepsRetrying is the contrast case: a TargetErr
// refusal ("retry later") consumes the full budget of 4 logins.
func TestTransientLoginRefusalKeepsRetrying(t *testing.T) {
	if got := reattachAgainstRefusals(t, iscsi.LoginStatusTargetErr, iscsi.LoginDetailOutOfResources); got != 4 {
		t.Fatalf("reattach tried %d logins against a transient refusal, want 4", got)
	}
}
