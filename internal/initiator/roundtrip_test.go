package initiator

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/iscsi"
	"repro/internal/target"
)

// chanListener feeds pre-connected pipes to a target server.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newChanListener() *chanListener {
	return &chanListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return &net.TCPAddr{} }

const rtIQN = "iqn.2016-04.edu.purdue.storm:rt"

// rtSession builds a full initiator<->target session over net.Pipe.
func rtSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	dev, err := blockdev.NewMemDisk(512, 4096)
	if err != nil {
		t.Fatal(err)
	}
	srv := target.NewServer()
	if err := srv.AddTarget(rtIQN, dev); err != nil {
		t.Fatal(err)
	}
	ln := newChanListener()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)

	client, server := net.Pipe()
	select {
	case ln.conns <- server:
	case <-ln.done:
		t.Fatal("listener closed")
	}
	if cfg.InitiatorIQN == "" {
		cfg.InitiatorIQN = "iqn.rt-client"
	}
	if cfg.TargetIQN == "" {
		cfg.TargetIQN = rtIQN
	}
	sess, err := Login(client, cfg)
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	return sess
}

func TestRoundTripReadWrite(t *testing.T) {
	sess := rtSession(t, Config{})
	want := bytes.Repeat([]byte{0x3C}, 8192)
	if err := sess.Write(32, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := sess.Read(32, 16, 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("round trip corrupted data")
	}
}

func TestRoundTripLargeWriteSolicited(t *testing.T) {
	// Force the R2T path with a tiny first burst.
	params := iscsi.DefaultParams()
	params.ImmediateData = true
	params.FirstBurstLength = 8 * 1024
	params.MaxBurstLength = 16 * 1024
	params.MaxRecvDataSegmentLength = 8 * 1024
	sess := rtSession(t, Config{Params: params})
	want := make([]byte, 128*1024)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if err := sess.Write(0, want, 512); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := sess.Read(0, uint32(len(want)/512), 512)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("multi-R2T write corrupted")
	}
}

func TestRoundTripHelpers(t *testing.T) {
	sess := rtSession(t, Config{})
	c, err := sess.Capacity()
	if err != nil || c.Blocks() != 4096 || c.BlockSize != 512 {
		t.Errorf("Capacity = %+v, %v", c, err)
	}
	if err := sess.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
}

func TestRoundTripDeviceAndLogout(t *testing.T) {
	sess := rtSession(t, Config{})
	dev, err := OpenDevice(sess)
	if err != nil {
		t.Fatalf("OpenDevice: %v", err)
	}
	want := bytes.Repeat([]byte{5}, 1024)
	if err := dev.WriteAt(want, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if err := dev.ReadAt(got, 8); err != nil || !bytes.Equal(got, want) {
		t.Errorf("device round trip: %v", err)
	}
	if err := dev.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
	if dev.Session() != sess {
		t.Error("Session accessor wrong")
	}
	if err := dev.Close(); err != nil { // Logout path
		t.Errorf("Close/Logout: %v", err)
	}
}

func TestRoundTripConcurrentClients(t *testing.T) {
	sess := rtSession(t, Config{QueueDepth: 8})
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lba := uint64(g * 128)
			want := bytes.Repeat([]byte{byte(g + 1)}, 1024)
			for i := 0; i < 8; i++ {
				if err := sess.Write(lba, want, 512); err != nil {
					t.Errorf("g=%d Write: %v", g, err)
					return
				}
				got, err := sess.Read(lba, 2, 512)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("g=%d Read: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
