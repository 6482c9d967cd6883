// Package flink implements the baseline in-memory dataflow engine the
// paper extends: a master-slave cluster (JobManager + TaskManagers)
// executing DataSet programs on CPU task slots through the
// one-element-at-a-time iterator model, with hash shuffles over the
// simulated network, HDFS sources, superstep barriers for bulk
// iterations, and task retry on failure.
//
// The engine executes programs for real (operators transform real Go
// values) while charging virtual time per the cost model: per-record
// iterator overhead, operator compute demand, serialization on shuffle
// paths, network and disk transfers, and the framework's fixed job and
// per-superstep overheads.
//
// GFlink (package core) layers GPUManagers on top of this cluster
// without modifying it, mirroring how the paper keeps compile-time and
// run-time compatibility with stock Flink.
package flink

import (
	"fmt"

	"gflink/internal/costmodel"
	"gflink/internal/hdfs"
	"gflink/internal/membuf"
	"gflink/internal/netsim"
	"gflink/internal/vclock"
)

// Config describes a simulated cluster.
type Config struct {
	// Workers is the number of slave nodes (TaskManagers).
	Workers int
	// SlotsPerWorker is the task-slot count per TaskManager; 0 means
	// one per CPU core, Flink's default.
	SlotsPerWorker int
	// Model carries all hardware cost constants.
	Model costmodel.Model
	// PageSize is the off-heap memory-segment size (block size for GPU
	// transfers); 0 means membuf.DefaultPageSize.
	PageSize int
	// ScaleDivisor is the nominal-to-real data divisor workload
	// generators apply: a dataset declared with N nominal records holds
	// N/ScaleDivisor real ones. It is not simulation-neutral: a GDST
	// block must fit a page in real bytes, so the divisor decides how
	// many blocks stand for the nominal data, and with them cache hits,
	// tier traffic and simulated time (KMeans over 270M points on 10
	// workers takes 75.874 s simulated at divisor 500 and 75.849 s at
	// 200000). Experiments that compare simulated times must pin it; the
	// benchmark workloads each do. 0 means 1.
	ScaleDivisor int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.SlotsPerWorker <= 0 {
		c.SlotsPerWorker = c.Model.CPU.Cores
	}
	if c.SlotsPerWorker <= 0 {
		c.SlotsPerWorker = 1
	}
	if c.PageSize <= 0 {
		c.PageSize = membuf.DefaultPageSize
	}
	if c.ScaleDivisor <= 0 {
		c.ScaleDivisor = 1
	}
	return c
}

// Cluster is one simulated deployment: a JobManager, one TaskManager
// per worker node, the network, and HDFS.
type Cluster struct {
	Clock *vclock.Clock
	Cfg   Config
	Net   *netsim.Network
	FS    *hdfs.FS

	JobManager   *JobManager
	TaskManagers []*TaskManager
}

// NewCluster builds a cluster on a fresh virtual clock.
func NewCluster(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	clock := vclock.New()
	net := netsim.New(clock, cfg.Model.Net, cfg.Workers)
	fs := hdfs.New(clock, cfg.Model.Disk, net, hdfs.Config{})
	c := &Cluster{Clock: clock, Cfg: cfg, Net: net, FS: fs}
	c.JobManager = &JobManager{cluster: c}
	for i := 0; i < cfg.Workers; i++ {
		c.TaskManagers = append(c.TaskManagers, &TaskManager{
			ID:    i,
			slots: vclock.NewSemaphore(clock, fmt.Sprintf("tm%d-slots", i), int64(cfg.SlotsPerWorker)),
			Pool:  membuf.NewPool(clock, cfg.Model, membuf.Config{PageSize: cfg.PageSize}),
		})
	}
	return c
}

// Parallelism returns the default job parallelism: total task slots.
func (c *Cluster) Parallelism() int {
	return c.Cfg.Workers * c.Cfg.SlotsPerWorker
}

// TaskManager is one worker node's execution agent: it owns the task
// slots and the off-heap memory pool. (GFlink's GPUManager attaches per
// TaskManager in package core.)
type TaskManager struct {
	ID    int
	slots *vclock.Semaphore
	Pool  *membuf.Pool
}

// Slots exposes the slot semaphore (used by tests and by the GFlink
// producer tasks).
func (tm *TaskManager) Slots() *vclock.Semaphore { return tm.slots }

// JobManager is the cluster coordinator: it admits jobs, deploys tasks
// and retries failed ones.
type JobManager struct {
	cluster *Cluster
	jobSeq  int
}

// Job is one running dataflow program. Obtain via Cluster.NewJob from
// inside a virtual-time process; the submission overhead is charged
// immediately.
type Job struct {
	ID      int
	Name    string
	cluster *Cluster

	// failures maps operator name to the number of task attempts that
	// should be failed (test hook for the retry path).
	failures map[string]int
	retries  int
}

// NewJob submits a job: the driver program runs on the calling process.
// Submission and plan translation cost is charged here.
func (c *Cluster) NewJob(name string) *Job {
	c.JobManager.jobSeq++
	j := &Job{
		ID:       c.JobManager.jobSeq,
		Name:     name,
		cluster:  c,
		failures: make(map[string]int),
	}
	c.Clock.Sleep(c.Cfg.Model.Overheads.JobSubmit)
	return j
}

// InjectTaskFailures arranges for the next n task attempts of the named
// operator to fail; the JobManager transparently retries them
// (exercising the reliability path the paper cites as the reason to
// build on Flink).
func (j *Job) InjectTaskFailures(operator string, n int) {
	j.failures[operator] += n
}

// Retries reports how many task attempts were retried so far.
func (j *Job) Retries() int { return j.retries }

// shouldFail consumes one injected failure for operator, if any.
func (j *Job) shouldFail(operator string) bool {
	if j.failures[operator] > 0 {
		j.failures[operator]--
		j.retries++
		return true
	}
	return false
}

// RunTasks deploys one task per partition of the operator and waits for
// all of them: the JobManager's scheduling loop. Each task runs on its
// partition's worker, holding one task slot. Failed attempts are
// retried on the same worker (Flink restarts from the consumed state;
// our eager model simply re-runs the task body). The plan layer calls
// it directly: a fused operator chain deploys exactly one task per
// partition for the whole chain, so it needs the deploy-acquire-retry
// protocol without any eager operator wrapped around it.
func (j *Job) RunTasks(operator string, nparts int, workerOf func(p int) int, body func(p int, tm *TaskManager)) {
	c := j.cluster
	g := vclock.NewGroup(c.Clock)
	for p := 0; p < nparts; p++ {
		p := p
		tm := c.TaskManagers[workerOf(p)%len(c.TaskManagers)]
		g.Go(fmt.Sprintf("%s[%d]", operator, p), func() {
			for {
				c.Clock.Sleep(c.Cfg.Model.Overheads.TaskDeploy)
				tm.slots.Acquire(1)
				failed := j.shouldFail(operator)
				if !failed {
					body(p, tm)
				}
				tm.slots.Release(1)
				if !failed {
					return
				}
			}
		})
	}
	g.Wait()
}
