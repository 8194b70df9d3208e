package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/policy"
	"repro/internal/workload"
)

// AblationRow is one configuration point of a design-choice sweep.
type AblationRow struct {
	Label   string
	IOPS    float64
	Latency time.Duration
}

// FormatAblation renders an ablation sweep as text.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-24s %10s %12s\n", title, "config", "IOPS", "mean lat")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %10.0f %12v\n", r.Label, r.IOPS, r.Latency.Round(time.Microsecond))
	}
	return b.String()
}

// ablationFio is the common workload for the sweeps.
func ablationFio(dev interface {
	BlockSize() int
	Blocks() uint64
	ReadAt([]byte, uint64) error
	WriteAt([]byte, uint64) error
	Flush() error
	Close() error
}, ops int) (*workload.FioResult, error) {
	return workload.RunFio(workload.FioConfig{
		Dev:          dev,
		RequestSize:  16 * 1024,
		Threads:      1,
		ReadFraction: 0.5,
		Ops:          ops,
		Seed:         99,
	})
}

// gwRounds is how many interleaved rounds AblationGatewayPlacement splits its
// operations over.
const gwRounds = 5

// AblationGatewayPlacement quantifies Section V-A's placement note: the
// worst-case spread (all hops on distinct hosts) versus co-locating the
// ingress gateway with the VM and the egress gateway near the target, next
// to a LEGACY baseline that isolates the routing overhead each placement
// adds.
//
// The differences are a few per cent of an operation, less than what one
// scheduler stall does to a mean on a shared CPU, so the configurations are
// all set up first and measured in gwRounds interleaved rounds of ops/gwRounds
// operations each; a row reports the median round (by mean latency). A stall
// then spoils one round of one configuration instead of deciding the order.
func AblationGatewayPlacement(ops int) ([]AblationRow, error) {
	type config struct {
		label  string
		dev    blockdev.Device
		rounds []AblationRow
	}
	var configs []*config
	var labs []*Lab
	defer func() {
		for _, l := range labs {
			l.Close()
		}
	}()

	l, err := NewLab()
	if err != nil {
		return nil, err
	}
	labs = append(labs, l)
	dev, detach, err := l.provision(Legacy, "vm-gw-base")
	if err != nil {
		return nil, err
	}
	defer detach() // runs before the labs close
	configs = append(configs, &config{label: "legacy (no StorM)", dev: dev})

	for i, pl := range []struct{ label, ingress, egress string }{
		{"worst-case spread", "compute2", "compute4"},
		{"ingress@VM host", "compute1", "compute4"},
		{"co-located both", "compute1", "compute1"},
	} {
		l, err := NewLab()
		if err != nil {
			return nil, err
		}
		labs = append(labs, l)
		vmName := fmt.Sprintf("vm-gw-%d", i)
		if _, err := l.Cloud.LaunchVM(vmName, "compute1"); err != nil {
			return nil, err
		}
		vol, err := l.Cloud.Volumes.Create(vmName+"-vol", volumeSize)
		if err != nil {
			return nil, err
		}
		pol := &policy.Policy{
			Tenant: l.nextTenant(),
			MiddleBoxes: []policy.MiddleBoxSpec{{
				Name: "fwd", Type: policy.TypeForward, Host: "compute3",
			}},
			Volumes: []policy.VolumeBinding{{
				VM: vmName, Volume: vol.ID, Chain: []string{"fwd"},
				IngressHost: pl.ingress, EgressHost: pl.egress,
			}},
		}
		dep, err := l.Platform.Apply(pol)
		if err != nil {
			return nil, err
		}
		configs = append(configs, &config{label: pl.label, dev: dep.Volumes[vmName+"/"+vol.ID].Device})
	}

	perRound := (ops + gwRounds - 1) / gwRounds
	for r := 0; r < gwRounds; r++ {
		for _, c := range configs {
			res, err := ablationFio(c.dev, perRound)
			if err != nil {
				return nil, err
			}
			c.rounds = append(c.rounds, AblationRow{Label: c.label, IOPS: res.IOPS, Latency: res.Latency.Mean})
		}
	}
	rows := make([]AblationRow, len(configs))
	for i, c := range configs {
		sort.Slice(c.rounds, func(a, b int) bool { return c.rounds[a].Latency < c.rounds[b].Latency })
		rows[i] = c.rounds[gwRounds/2]
	}
	return rows, nil
}

// AblationChainLength sweeps the number of forwarding middle-boxes on the
// path (0-3), the cost of chaining Section III-A enables.
func AblationChainLength(ops int) ([]AblationRow, error) {
	var rows []AblationRow
	for n := 0; n <= 3; n++ {
		l, err := NewLab()
		if err != nil {
			return nil, err
		}
		vmName := fmt.Sprintf("vm-chain-%d", n)
		if _, err := l.Cloud.LaunchVM(vmName, "compute1"); err != nil {
			l.Close()
			return nil, err
		}
		vol, err := l.Cloud.Volumes.Create(vmName+"-vol", volumeSize)
		if err != nil {
			l.Close()
			return nil, err
		}
		pol := &policy.Policy{Tenant: l.nextTenant()}
		var chain []string
		hosts := []string{"compute2", "compute3", "compute4"}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("fwd%d", i)
			pol.MiddleBoxes = append(pol.MiddleBoxes, policy.MiddleBoxSpec{
				Name: name, Type: policy.TypeForward, Host: hosts[i%len(hosts)],
			})
			chain = append(chain, name)
		}
		pol.Volumes = []policy.VolumeBinding{{
			VM: vmName, Volume: vol.ID, Chain: chain,
			IngressHost: "compute2", EgressHost: "compute4",
		}}
		dep, err := l.Platform.Apply(pol)
		if err != nil {
			l.Close()
			return nil, err
		}
		res, err := ablationFio(dep.Volumes[vmName+"/"+vol.ID].Device, ops)
		l.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("%d middle-boxes", n), IOPS: res.IOPS, Latency: res.Latency.Mean,
		})
	}
	return rows, nil
}

// AblationJournalCapacity sweeps the active relay's NVRAM budget: too
// small and early acknowledgement degrades to write-through under load.
func AblationJournalCapacity(ops int) ([]AblationRow, error) {
	capacities := []int{32 * 1024, 256 * 1024, 4 << 20}
	var rows []AblationRow
	for i, capBytes := range capacities {
		l, err := NewLab()
		if err != nil {
			return nil, err
		}
		vmName := fmt.Sprintf("vm-j-%d", i)
		dev, cleanup, err := l.provisionActiveWithJournal(vmName, capBytes)
		if err != nil {
			l.Close()
			return nil, err
		}
		res, err := workload.RunFio(workload.FioConfig{
			Dev: dev, RequestSize: 16 * 1024, Threads: 8,
			ReadFraction: 0.2, Ops: ops * 4, Seed: 99,
		})
		cleanup()
		l.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("journal %d KiB", capBytes/1024), IOPS: res.IOPS, Latency: res.Latency.Mean,
		})
	}
	return rows, nil
}

// AblationReplicaFactor sweeps the replication factor's effect on OLTP
// throughput (read striping gain vs. write fan-out cost).
func AblationReplicaFactor(duration time.Duration) ([]AblationRow, error) {
	if duration <= 0 {
		duration = time.Second
	}
	var rows []AblationRow
	for _, replicas := range []int{2, 3, 4} {
		l, err := NewLabQueuedDisk(4)
		if err != nil {
			return nil, err
		}
		res, err := l.replicatedOLTP(fmt.Sprintf("vm-rf-%d", replicas), replicas, duration)
		l.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("%d replicas", replicas),
			IOPS:  res.TPS,
		})
	}
	return rows, nil
}
