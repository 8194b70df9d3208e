package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/bufpool"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/initiator"
	"repro/internal/iscsi"
	"repro/internal/middlebox"
	"repro/internal/nat"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scsi"
	"repro/internal/sdn"
	"repro/internal/splice"
	"repro/internal/target"
	"repro/internal/vswitch"
)

// harness is the direct half of the per-layer metrics: one goroutine timing
// calls into each layer's exported functions at the workloads' sizes, with
// no fabric in between, so a layer is measured from outside. Iteration
// counts are fixed; a value is the median of batches batches.
type harness struct {
	stateRoot string
	// realDir is on the output directory's own file system, not the tmpfs.
	realDir string
	// scale divides every iteration count (the smoke test runs tiny).
	scale   int
	metrics map[string]metric
	errs    []error
	spans   []harnessSpan
}

const batches = 5

// sizes are the two I/O sizes of the workloads.
var sizes = []struct {
	tag string
	n   int
}{{"4k", 4096}, {"64k", 64 * 1024}}

func (h *harness) iters(n int) int {
	if h.scale > 1 {
		n /= h.scale
	}
	if n < 1 {
		n = 1
	}
	return n
}

// unitOf reads a metric's unit off its name: ..._ns, ..._us_4k, ..._ms_1024.
func unitOf(name string) (unit string, perNs float64) {
	for _, part := range strings.Split(name[strings.IndexByte(name, '.')+1:], "_") {
		switch part {
		case "ns":
			return "ns", 1
		case "us":
			return "us", 1e3
		case "ms":
			return "ms", 1e6
		}
	}
	return "ns", 1
}

func (h *harness) fail(name string, err error) {
	h.errs = append(h.errs, fmt.Errorf("%s: %w", name, err))
	if _, ok := h.metrics[name]; !ok {
		unit, _ := unitOf(name)
		h.metrics[name] = metric{Unit: unit}
	}
}

// sample runs one measurement: batch b does its own untimed set-up, then
// returns how long its timed part took and how many units of work that
// was. The value is the median over batches of time per unit, in the unit
// the name carries.
func (h *harness) sample(name string, batch func(b int) (time.Duration, int, error)) {
	unit, perNs := unitOf(name)
	start := time.Now()
	vals := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		took, units, err := batch(b)
		if err != nil {
			h.fail(name, err)
			return
		}
		vals = append(vals, float64(took.Nanoseconds())/float64(units)/perNs)
	}
	h.spans = append(h.spans, harnessSpan{Name: name, Start: start, Dur: time.Since(start)})
	h.metrics[name] = medianOf(vals, unit)
}

// time is sample for the common case: n back-to-back calls of op a batch.
func (h *harness) time(name string, n int, op func(i int) error) {
	n = h.iters(n)
	h.sample(name, func(b int) (time.Duration, int, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(b*n + i); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), n, nil
	})
}

// allocs reports heap allocations per call of op over n calls.
func (h *harness) allocs(name string, n int, op func(i int) error) {
	n = h.iters(n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			h.fail(name, err)
			return
		}
	}
	runtime.ReadMemStats(&m1)
	h.metrics[name] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / float64(n), Unit: "count"}
}

func (h *harness) set(name, unit string, v float64) {
	h.metrics[name] = metric{Value: v, Unit: unit}
}

// with runs a group of measurements that share a fixture; a fixture that
// cannot be built fails every metric of the group.
func (h *harness) with(names []string, group func() error) {
	if err := group(); err != nil {
		for _, n := range names {
			if _, ok := h.metrics[n]; !ok {
				h.fail(n, err)
			}
		}
	}
}

func (h *harness) runAll() {
	h.metrics = map[string]metric{}
	obs.Default().DisableTracing()
	h.wire()
	h.controlPlane()
	h.dataPath()
	h.journals()
	h.fsyncReal(h.realDir)
	h.stores()
	h.fileSystem()
	h.spansCost()
}

// ---- wire: codec, buffers, fabric -----------------------------------------

func (h *harness) wire() {
	for _, sz := range sizes {
		data := make([]byte, sz.n)
		var wire bytes.Buffer
		var pdu iscsi.PDU
		cmd := &iscsi.SCSICommand{Final: true, Write: true, ExpectedDataTransferLength: uint32(sz.n), Data: data}
		codec := func(i int) error {
			cmd.ITT = uint32(i)
			wire.Reset()
			if _, err := cmd.EncodeInto(&pdu).WriteTo(&wire); err != nil {
				return err
			}
			p, err := iscsi.ReadPDU(&wire)
			if err != nil {
				return err
			}
			_, err = iscsi.ParseSCSICommand(p)
			p.Release()
			return err
		}
		h.time("iscsi.cmd_codec_ns_"+sz.tag, 2000, codec)
		if sz.tag == "4k" {
			h.allocs("iscsi.codec_allocs_4k", 2000, codec)
		}
	}
	{
		var wire bytes.Buffer
		var pdu iscsi.PDU
		var back iscsi.DataIn
		din := &iscsi.DataIn{Final: true, ITT: 7, Data: make([]byte, 64*1024)}
		h.time("iscsi.datain_codec_ns_64k", 2000, func(int) error {
			wire.Reset()
			if _, err := din.EncodeInto(&pdu).WriteTo(&wire); err != nil {
				return err
			}
			p, err := iscsi.ReadPDU(&wire)
			if err != nil {
				return err
			}
			err = iscsi.ParseDataInInto(&back, p)
			p.Release()
			return err
		})
	}
	h.time("iscsi.negotiate_us", 2000, func(int) error {
		offered, err := iscsi.DecodePairs(iscsi.EncodePairs(iscsi.DefaultParams().Pairs()))
		if err != nil {
			return err
		}
		_, err = iscsi.DefaultParams().Negotiate(offered)
		return err
	})
	{
		var raw [16]byte
		h.time("scsi.cdb_codec_ns", 20000, func(i int) error {
			cdb := scsi.WriteCDB(uint64(i), 8)
			n, err := cdb.EncodeInto(raw[:])
			if err != nil {
				return err
			}
			_, err = scsi.Decode(raw[:n])
			return err
		})
	}
	h.time("bufpool.get_release_ns", 100000, func(int) error {
		bufpool.Get(4096).Release()
		return nil
	})

	names := []string{"netsim.xfer_ns_4k", "netsim.xfer_ns_64k", "netsim.dial_us"}
	h.with(names, func() error {
		fab := netsim.NewFabric(regimeZero.cloudConfig().Model)
		a, err := fab.AddHost("a", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
		if err != nil {
			return err
		}
		b, err := fab.AddHost("b", map[netsim.Network]string{netsim.StorageNet: "10.0.0.2"})
		if err != nil {
			return err
		}
		ln, err := b.NewEndpoint("srv").Listen(netsim.StorageNet, 3260)
		if err != nil {
			return err
		}
		defer ln.Close()
		client := a.NewEndpoint("cli")
		dial := func() (net.Conn, net.Conn, error) {
			c, err := client.Dial(netsim.StorageNet, "10.0.0.2:3260")
			if err != nil {
				return nil, nil, err
			}
			s, err := ln.Accept()
			return c, s, err
		}
		c, s, err := dial()
		if err != nil {
			return err
		}
		defer c.Close()
		defer s.Close()
		for _, sz := range sizes {
			out, in := make([]byte, sz.n), make([]byte, sz.n)
			// Fabric writers never block, so one goroutine can write and
			// then read the same bytes back out of the far end.
			h.time("netsim.xfer_ns_"+sz.tag, 2000, func(int) error {
				if _, err := c.Write(out); err != nil {
					return err
				}
				for got := 0; got < len(in); {
					k, err := s.Read(in[got:])
					if err != nil {
						return err
					}
					got += k
				}
				return nil
			})
		}
		h.time("netsim.dial_us", 500, func(int) error {
			c, s, err := dial()
			if err != nil {
				return err
			}
			_ = c.Close()
			return s.Close()
		})
		return nil
	})
}

// ---- control plane ----------------------------------------------------------

// twoBoxPolicy is the paper's service bundle as tenants submit it.
const twoBoxPolicy = `{
  "tenant": "t",
  "middleboxes": [
    {"name": "mon", "type": "access-monitor", "params": {"watch": "/mnt/box"}},
    {"name": "enc", "type": "encryption", "mode": "active",
     "params": {"key": "` + aesKeyHex + `", "forwardConns": "2"}}
  ],
  "volumes": [{"vm": "vm1", "volume": "vol-0001", "chain": ["mon", "enc"]}]
}`

// idleTenants are deployed before core.apply_ms is timed, so the control
// plane's maps and rule tables are not empty.
const idleTenants = 32

func (h *harness) controlPlane() {
	h.with([]string{"vswitch.lookup_ns", "vswitch.lookup_allocs"}, func() error {
		sw := vswitch.New("compute1")
		var flows [256]netsim.Flow
		for i := range flows {
			flows[i] = netsim.Flow{Net: netsim.InstanceNet, SrcIP: "192.168.20.1", SrcPort: 40000 + i, DstIP: fmt.Sprintf("192.168.21.%d", i%200), DstPort: 3260}
		}
		for i, f := range flows {
			m := vswitch.Match{DstIP: f.DstIP, DstPort: f.DstPort}
			if i%2 == 0 { // half exact-match, half wildcard-source
				m = vswitch.Match{SrcIP: f.SrcIP, SrcPort: f.SrcPort, DstIP: f.DstIP, DstPort: f.DstPort, FromStation: sdn.IngressStation}
			}
			if err := sw.Install(&vswitch.Rule{ID: fmt.Sprintf("r%d", i), Priority: 100, Match: m,
				Action: vswitch.Action{Mode: vswitch.ModeForward, Station: "mb", Host: "compute3"}}); err != nil {
				return err
			}
		}
		look := func(i int) error {
			if sw.Lookup(flows[i%len(flows)], sdn.IngressStation) == nil {
				return fmt.Errorf("no rule for flow %d", i%len(flows))
			}
			return nil
		}
		h.time("vswitch.lookup_ns", 50000, look)
		h.allocs("vswitch.lookup_allocs", 50000, look)
		return nil
	})
	h.with([]string{"nat.translate_ns"}, func() error {
		tbl := nat.NewTable()
		var flows [64]netsim.Flow
		for i := range flows {
			flows[i] = netsim.Flow{Net: netsim.StorageNet, SrcIP: fmt.Sprintf("10.0.1.%d", i), SrcPort: 33000, DstIP: "10.0.0.100", DstPort: 3260}
			if err := tbl.Add(&nat.Rule{ID: fmt.Sprintf("n%d", i), Priority: 100,
				Match:  nat.Match{Net: netsim.StorageNet, SrcIP: flows[i].SrcIP, DstPort: 3260},
				Action: nat.Redirect("192.168.20.1", 3260)}); err != nil {
				return err
			}
		}
		h.time("nat.translate_ns", 50000, func(i int) error {
			if _, _, ok := tbl.Apply(flows[i%len(flows)]); !ok {
				return fmt.Errorf("flow %d not translated", i%len(flows))
			}
			return nil
		})
		return nil
	})
	h.with([]string{"sdn.install_chain_us", "splice.deploy_us"}, func() error {
		chain := []sdn.MBSpec{
			{Name: "fwd", Host: "compute2", Mode: vswitch.ModeForward},
			{Name: "enc", Host: "compute3", Mode: vswitch.ModeTerminate, RelayAddr: netsim.Addr{Net: netsim.InstanceNet, IP: "192.168.100.9", Port: 3260}},
		}
		ctrl := sdn.NewController()
		h.time("sdn.install_chain_us", 500, func(i int) error {
			id := fmt.Sprintf("c%d", i)
			err := ctrl.InstallChain(&sdn.Chain{ID: id, Selector: vswitch.Match{DstIP: "192.168.21.1", DstPort: 3260}, IngressHost: "compute1", MBs: chain})
			ctrl.RemoveChain(id)
			return err
		})
		c, err := cloud.New(regimeZero.cloudConfig())
		if err != nil {
			return err
		}
		defer c.Close()
		h.time("splice.deploy_us", 500, func(i int) error {
			d := &splice.Deployment{
				ID: fmt.Sprintf("d%d", i), VM: "vm", VMHost: "compute1", VolumeIQN: "iqn.x", TargetAddr: c.Volumes.TargetAddr(),
				Ingress: splice.GatewaySpec{Name: "gw-in", Host: "compute2", InstanceIP: "192.168.20.1"},
				Egress:  splice.GatewaySpec{Name: "gw-out", Host: "compute4", InstanceIP: "192.168.20.2"},
				Chain:   chain,
			}
			err := c.Plane.Deploy(d)
			c.Plane.Undeploy(d.ID)
			return err
		})
		return nil
	})
	h.time("policy.parse_us", 2000, func(int) error {
		_, err := policy.Parse([]byte(twoBoxPolicy))
		return err
	})
	h.with([]string{"cloud.launch_mb_us", "core.apply_ms", "core.teardown_ms"}, func() error {
		c, err := cloud.New(regimeZero.cloudConfig())
		if err != nil {
			return err
		}
		defer c.Close()
		h.time("cloud.launch_mb_us", 200, func(i int) error {
			name := fmt.Sprintf("mb%d", i)
			if _, err := c.LaunchMiddleBox(cloud.MBSpec{Name: name, Host: "compute3", Mode: middlebox.Active}); err != nil {
				return err
			}
			return c.RemoveMiddleBox(name)
		})
		p := core.New(c)
		pol := func(i int) (*policy.Policy, error) {
			vm := fmt.Sprintf("hvm%d", i)
			if _, err := c.LaunchVM(vm, "compute1"); err != nil {
				return nil, err
			}
			vol, err := c.Volumes.Create(vm+"-vol", 1<<20)
			if err != nil {
				return nil, err
			}
			return &policy.Policy{
				Tenant:      fmt.Sprintf("ht%d", i),
				MiddleBoxes: []policy.MiddleBoxSpec{encryptionBox(regimeZero, policy.ModeActive, nil)},
				Volumes:     []policy.VolumeBinding{{VM: vm, Volume: vol.ID, Chain: []string{"enc"}}},
			}, nil
		}
		for i := 0; i < idleTenants; i++ {
			pl, err := pol(i)
			if err != nil {
				return err
			}
			if _, err := p.Apply(pl); err != nil {
				return err
			}
		}
		// Apply and Teardown alternate; each metric times its own half.
		n, next := h.iters(10), idleTenants
		for _, half := range []struct {
			name  string
			apply bool
		}{{"core.apply_ms", true}, {"core.teardown_ms", false}} {
			h.sample(half.name, func(int) (time.Duration, int, error) {
				var took time.Duration
				for i := 0; i < n; i++ {
					pl, err := pol(next)
					next++
					if err != nil {
						return 0, 0, err
					}
					t0 := time.Now()
					if _, err := p.Apply(pl); err != nil {
						return 0, 0, err
					}
					t1 := time.Now()
					if err := p.Teardown(pl.Tenant); err != nil {
						return 0, 0, err
					}
					if half.apply {
						took += t1.Sub(t0)
					} else {
						took += time.Since(t1)
					}
				}
				return took, n, nil
			})
		}
		return nil
	})
}

// ---- data path: memory disk, initiator, target, relay over net.Pipe -----------------------------------

// pipeListener yields one pre-established connection, then blocks until
// closed: the minimal net.Listener for net.Pipe-backed servers.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener(c net.Conn) *pipeListener {
	l := &pipeListener{ch: make(chan net.Conn, 1), done: make(chan struct{})}
	l.ch <- c
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "bench", Net: "pipe"} }

const pipeIQN = "iqn.2016-04.edu.purdue.storm:bench"

// pipeTarget serves a memory disk to whoever dials it.
func pipeTarget() (*target.Server, func() net.Conn, error) {
	disk, err := blockdev.NewMemDisk(sectorBytes, 4096)
	if err != nil {
		return nil, nil, err
	}
	srv := target.NewServer(target.WithInlineExec())
	if err := srv.AddTarget(pipeIQN, disk); err != nil {
		return nil, nil, err
	}
	return srv, func() net.Conn {
		c, s := net.Pipe()
		go srv.Serve(newPipeListener(s))
		return c
	}, nil
}

func login(conn net.Conn) (*initiator.Session, error) {
	return initiator.Login(conn, initiator.Config{InitiatorIQN: "iqn.bench-vm", TargetIQN: pipeIQN})
}

// xfer is one session-level measurement: a write or a read of size bytes.
type xfer struct {
	name  string
	write bool
	size  int
}

// rw times each transfer on the session.
func (h *harness) rw(sess *initiator.Session, xfers ...xfer) {
	for _, o := range xfers {
		iters := 1000
		if o.size > 4096 {
			iters = 300
		}
		buf := make([]byte, o.size)
		blocks := uint32(o.size / sectorBytes)
		if o.write {
			h.time(o.name, iters, func(i int) error { return sess.Write(uint64(i%8)*uint64(blocks), buf, sectorBytes) })
			continue
		}
		if err := sess.Write(0, buf, sectorBytes); err != nil {
			h.fail(o.name, err)
			continue
		}
		h.time(o.name, iters, func(int) error {
			_, err := sess.ReadInto(buf, 0, blocks, sectorBytes)
			return err
		})
	}
}

func (h *harness) dataPath() {
	h.with([]string{"blockdev.memdisk_rw_ns_4k"}, func() error {
		disk, err := blockdev.NewMemDisk(sectorBytes, 4096)
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		h.time("blockdev.memdisk_rw_ns_4k", 20000, func(i int) error {
			lba := uint64(i%256) * 8
			if err := disk.WriteAt(buf, lba); err != nil {
				return err
			}
			return disk.ReadAt(buf, lba)
		})
		return nil
	})
	h.with([]string{"initiator.login_us", "target.direct_write_us_4k", "target.direct_read_us_4k", "target.direct_write_us_64k"}, func() error {
		srv, dial, err := pipeTarget()
		if err != nil {
			return err
		}
		defer srv.Close()
		h.time("initiator.login_us", 100, func(int) error {
			sess, err := login(dial())
			if err != nil {
				return err
			}
			return sess.Close()
		})
		sess, err := login(dial())
		if err != nil {
			return err
		}
		defer sess.Close()
		h.rw(sess,
			xfer{"target.direct_write_us_4k", true, 4096},
			xfer{"target.direct_read_us_4k", false, 4096},
			xfer{"target.direct_write_us_64k", true, 64 * 1024})
		return nil
	})

	active := []string{"middlebox.relay_write_us_4k", "middlebox.relay_read_us_4k", "middlebox.relay_write_us_64k", "middlebox.relay_read_us_64k", "middlebox.relay_write_allocs_4k"}
	for _, mode := range []middlebox.Mode{middlebox.Active, middlebox.Passive} {
		names := active
		if mode == middlebox.Passive {
			names = []string{"middlebox.passive_write_us_4k"}
		}
		h.with(names, func() error {
			srv, dial, err := pipeTarget()
			if err != nil {
				return err
			}
			defer srv.Close()
			relay, err := middlebox.NewRelay(middlebox.Config{
				Name: "mb", Mode: mode,
				Dial:    func(netsim.Addr) (net.Conn, error) { return dial(), nil },
				NextHop: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
				// No interception charge: code-path cost only.
				Cost: middlebox.CostModel{MTU: 8192, BatchSize: 65536},
			})
			if err != nil {
				return err
			}
			defer relay.Close()
			front, back := net.Pipe()
			go relay.Serve(newPipeListener(back))
			sess, err := login(front)
			if err != nil {
				return err
			}
			defer sess.Close()
			if mode == middlebox.Passive {
				h.rw(sess, xfer{"middlebox.passive_write_us_4k", true, 4096})
				return nil
			}
			h.rw(sess,
				xfer{"middlebox.relay_write_us_4k", true, 4096},
				xfer{"middlebox.relay_read_us_4k", false, 4096},
				xfer{"middlebox.relay_write_us_64k", true, 64 * 1024},
				xfer{"middlebox.relay_read_us_64k", false, 64 * 1024})
			buf := make([]byte, 4096)
			h.allocs("middlebox.relay_write_allocs_4k", 1000, func(i int) error { return sess.Write(uint64(i%8)*8, buf, sectorBytes) })
			return nil
		})
	}
}
