package experiments

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cloud"
	"repro/internal/initiator"
	"repro/internal/middlebox"
	"repro/internal/minidb"
	"repro/internal/policy"
	"repro/internal/sdn"
	"repro/internal/services/crypt"
	"repro/internal/splice"
	"repro/internal/vswitch"
	"repro/internal/workload"
)

// provisionActiveWithJournal builds an active encryption relay with an
// explicit NVRAM budget, bypassing the policy layer (which does not expose
// the knob).
func (l *Lab) provisionActiveWithJournal(vmName string, journalCap int) (blockdev.Device, func(), error) {
	vm, vol, err := l.vmVolume(vmName, volumeSize)
	if err != nil {
		return nil, nil, err
	}
	mbName := vmName + "-mb"
	key := testKey()
	mb, err := l.Cloud.LaunchMiddleBox(cloud.MBSpec{
		Name: mbName,
		Host: "compute3",
		Mode: middlebox.Active,
		BuildServices: func(*cloud.MiddleBox) ([]middlebox.ServiceFactory, error) {
			return []middlebox.ServiceFactory{crypt.Service(key, crypt.CostModel{})}, nil
		},
		JournalCapacity: journalCap,
	})
	if err != nil {
		return nil, nil, err
	}
	d := &splice.Deployment{
		ID:         "journal-ablation/" + vmName,
		VM:         vmName,
		VMHost:     vm.Host,
		VolumeIQN:  vol.IQN,
		TargetAddr: l.Cloud.Volumes.TargetAddr(),
		Ingress:    splice.GatewaySpec{Name: "gw-in", Host: "compute2", InstanceIP: fmt.Sprintf("192.168.30.%d", len(vmName))},
		Egress:     splice.GatewaySpec{Name: "gw-out", Host: "compute4", InstanceIP: fmt.Sprintf("192.168.31.%d", len(vmName))},
		Chain: []sdn.MBSpec{{
			Name: mbName, Host: mb.Host, Mode: vswitch.ModeTerminate, RelayAddr: mb.RelayAddr,
		}},
	}
	if err := l.Cloud.Plane.Deploy(d); err != nil {
		return nil, nil, err
	}
	var dev *initiator.Device
	err = l.Cloud.Plane.AtomicAttach(d, func() error {
		conn, err := vm.Endpoint.DialAddr(d.TargetAddr)
		if err != nil {
			return err
		}
		sess, err := initiator.Login(conn, initiator.Config{
			InitiatorIQN: "iqn.x:" + vmName, TargetIQN: vol.IQN,
		})
		if err != nil {
			return err
		}
		dev, err = initiator.OpenDevice(sess)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() {
		_ = dev.Close()
		l.Cloud.Plane.Undeploy(d.ID)
		mb.Close()
	}
	return dev, cleanup, nil
}

// replicationMB is the replica-dispatch middle-box of Figure 13 with n
// replicas.
func replicationMB(n int) policy.MiddleBoxSpec {
	return policy.MiddleBoxSpec{
		Name: "rep", Type: policy.TypeReplication, Host: "compute3",
		Params: map[string]string{"replicas": fmt.Sprint(n)},
	}
}

// replicatedOLTP deploys an n-replica dispatch middle-box and drives the
// OLTP workload against it.
func (l *Lab) replicatedOLTP(vmName string, replicas int, duration time.Duration) (*workload.OLTPResult, error) {
	dev, teardown, err := l.deployNew(vmName, replicationMB(replicas))
	if err != nil {
		return nil, err
	}
	defer teardown()
	db, err := minidb.Open(dev, 4096)
	if err != nil {
		return nil, err
	}
	return workload.RunOLTP(workload.OLTPConfig{
		DB: db, Rows: 400, Threads: 24, Duration: duration, Seed: 3,
	})
}
