// Package storm is a from-scratch reproduction of "StorM: Enabling
// Tenant-Defined Cloud Storage Middle-Box Services" (Lu, Srivastava,
// Saltaformaggio, Xu — DSN 2016): a middle-box platform that lets cloud
// tenants deploy their own storage security and reliability services
// (access monitoring, encryption, replication) between their VMs and the
// cloud's block storage, with the provider supplying all infrastructural
// support.
//
// The package re-exports the platform's public surface:
//
//   - NewCloud boots the simulated IaaS of Figure 1 (compute hosts, storage
//     host, the isolated instance and storage networks, an iSCSI volume
//     service, the SDN controller and the splice forwarding plane).
//   - NewPlatform wraps the cloud with the StorM control plane; Apply takes
//     a tenant Policy and provisions middle-boxes, gateway pairs, forwarding
//     chains, and attached volumes.
//   - ParsePolicy reads the JSON policy format of Section III-D.
//   - The workload runners (RunFio, RunPostmark, RunFTPUpload/Download,
//     RunOLTP) drive attached volumes the way the paper's evaluation does.
//   - Mkfs/Mount give tenants the ext-style file system whose metadata the
//     monitoring service reconstructs.
//
// A minimal session:
//
//	c, _ := storm.NewCloud(storm.CloudConfig{})
//	defer c.Close()
//	p := storm.NewPlatform(c)
//	vm, _ := c.LaunchVM("vm1", "")
//	vol, _ := c.Volumes.Create("data", 64<<20)
//	pol, _ := storm.ParsePolicy(policyJSON)
//	dep, _ := p.Apply(pol)
//	dev := dep.Volumes["vm1/"+vol.ID].Device // block I/O through the chain
//	_ = vm
//	_ = dev
package storm

import (
	"repro/internal/blockdev"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/extfs"
	"repro/internal/initiator"
	"repro/internal/minidb"
	"repro/internal/netsim"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/policy"
	"repro/internal/semantic"
	"repro/internal/services/crypt"
	"repro/internal/services/monitor"
	"repro/internal/services/replica"
	"repro/internal/workload"
)

// Infrastructure types.
type (
	// Cloud is the simulated IaaS (Figure 1).
	Cloud = cloud.Cloud
	// CloudConfig sizes the cloud.
	CloudConfig = cloud.Config
	// VM is a tenant virtual machine.
	VM = cloud.VM
	// MiddleBox is a provisioned storage middle-box VM.
	MiddleBox = cloud.MiddleBox
	// NetworkModel holds the fabric's latency and cost constants.
	NetworkModel = netsim.Model
	// DiskModel is the storage medium's service-time model.
	DiskModel = blockdev.ServiceModel
	// Device is the block device abstraction volumes and services share.
	Device = blockdev.Device
	// RemoteDevice is the VM-side view of an attached volume.
	RemoteDevice = initiator.Device
)

// Platform types.
type (
	// Platform is the StorM control plane.
	Platform = core.Platform
	// TenantDeployment is the realized state of one applied policy.
	TenantDeployment = core.TenantDeployment
	// AttachedVolume is one volume connected through its middle-box chain.
	AttachedVolume = core.AttachedVolume
	// Policy is a tenant's middle-box deployment request (Section III-D).
	Policy = policy.Policy
	// MiddleBoxSpec declares one middle-box VM in a policy.
	MiddleBoxSpec = policy.MiddleBoxSpec
	// VolumeBinding routes one VM's volume through a middle-box chain.
	VolumeBinding = policy.VolumeBinding
)

// Scale-out orchestration types.
type (
	// Orchestrator is the autoscaling control loop for elastic middle-box
	// instance groups (minInstances/maxInstances in a MiddleBoxSpec).
	Orchestrator = orchestrator.Orchestrator
	// OrchestratorConfig tunes the reconcile loop.
	OrchestratorConfig = orchestrator.Config
	// MemberStatus reports one group member's sessions and drain progress.
	MemberStatus = core.MemberStatus
	// MBInstance is one member of a middle-box instance group.
	MBInstance = core.MBInstance
)

// Service types.
type (
	// Monitor is the storage access monitor engine (Section V-B1).
	Monitor = monitor.Monitor
	// Alert reports a watched access.
	Alert = monitor.Alert
	// Signature is a known-malware access pattern the monitor can detect.
	Signature = monitor.Signature
	// SignatureMatch reports a completed malware signature.
	SignatureMatch = monitor.SignatureMatch
	// Event is one reconstructed high-level file operation.
	Event = semantic.Event
	// Cipher is the per-sector AES-256 cipher (Section V-B2).
	Cipher = crypt.Cipher
	// ReplicaDispatcher fans writes out to replicas and stripes reads
	// (Section V-B3).
	ReplicaDispatcher = replica.Dispatcher
	// CPUAccount tracks simulated per-host CPU busy time.
	CPUAccount = obs.CPUAccount
)

// File system and database types.
type (
	// FS is the ext-style file system tenants put on their volumes.
	FS = extfs.FS
	// FSOptions configures Mkfs.
	FSOptions = extfs.Options
	// FSView is the initial high-level system view (Section III-C).
	FSView = extfs.View
	// DB is the miniature OLTP database used by the replication study.
	DB = minidb.DB
	// ObjectStore is the Swift-like object gateway over a volume's file
	// system (the paper's object-storage applicability claim).
	ObjectStore = objstore.Store
	// ObjectInfo describes one stored object.
	ObjectInfo = objstore.ObjectInfo
)

// Workload types.
type (
	// FioConfig / FioResult mirror the paper's fio runs.
	FioConfig = workload.FioConfig
	FioResult = workload.FioResult
	// PostmarkConfig / PostmarkResult mirror the PostMark comparison.
	PostmarkConfig = workload.PostmarkConfig
	PostmarkResult = workload.PostmarkResult
	// FTPConfig / FTPResult mirror the FTP bandwidth test.
	FTPConfig = workload.FTPConfig
	FTPResult = workload.FTPResult
	// OLTPConfig / OLTPResult mirror the Sysbench-style runs.
	OLTPConfig = workload.OLTPConfig
	OLTPResult = workload.OLTPResult
)

// Service type and mode constants for policies.
const (
	TypeMonitor     = policy.TypeMonitor
	TypeEncryption  = policy.TypeEncryption
	TypeReplication = policy.TypeReplication
	TypeForward     = policy.TypeForward

	ModeActive  = policy.ModeActive
	ModePassive = policy.ModePassive
)

// NewCloud boots the simulated IaaS.
func NewCloud(cfg CloudConfig) (*Cloud, error) { return cloud.New(cfg) }

// NewPlatform wraps a cloud with the StorM control plane.
func NewPlatform(c *Cloud) *Platform { return core.New(c) }

// NewOrchestrator builds the autoscaling control loop for middle-box
// instance groups; Manage enrolls a tenant's group, Start runs the loop.
func NewOrchestrator(cfg OrchestratorConfig) *Orchestrator { return orchestrator.New(cfg) }

// ParsePolicy decodes and validates a JSON tenant policy.
func ParsePolicy(data []byte) (*Policy, error) { return policy.Parse(data) }

// Mkfs formats a device with the ext-style file system.
func Mkfs(dev Device, opts FSOptions) (*FS, error) { return extfs.Mkfs(dev, opts) }

// Mount opens an already-formatted device.
func Mount(dev Device) (*FS, error) { return extfs.Mount(dev) }

// OpenDB opens the miniature OLTP database over a device.
func OpenDB(dev Device, pageSize int) (*DB, error) { return minidb.Open(dev, pageSize) }

// NewObjectStore initializes (or reopens) an object store on a mounted
// file system.
func NewObjectStore(fs *FS) (*ObjectStore, error) { return objstore.New(fs) }

// RunFio executes the fio-like block workload.
func RunFio(cfg FioConfig) (*FioResult, error) { return workload.RunFio(cfg) }

// RunPostmark executes the PostMark-like small-file workload.
func RunPostmark(cfg PostmarkConfig) (*PostmarkResult, error) { return workload.RunPostmark(cfg) }

// RunFTPUpload streams data onto a volume.
func RunFTPUpload(cfg FTPConfig) (*FTPResult, error) { return workload.RunFTPUpload(cfg) }

// RunFTPDownload streams data off a volume.
func RunFTPDownload(cfg FTPConfig) (*FTPResult, error) { return workload.RunFTPDownload(cfg) }

// RunOLTP executes the Sysbench-style transaction workload.
func RunOLTP(cfg OLTPConfig) (*OLTPResult, error) { return workload.RunOLTP(cfg) }
