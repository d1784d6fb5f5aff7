// Command echelon-loadgen drives a live coordinator's job-arrival pipeline:
// per-tenant sessions submit seeded training jobs over the control protocol,
// and each admission is executed by replaying the job's compiled flow
// lifecycle (release/finish per communication) as fast as the coordinator
// schedules it. It measures admission waits and flow-event throughput.
//
// The job stream is deterministic in -seed; the coordinator decides
// placement and admission order, so the loadgen only needs the fabric to be
// large enough for -workers (plus one host for "ps" jobs).
//
//	echelon-coordinator -listen 127.0.0.1:7100 -queue -host 'w[0-3]=1e9' &
//	echelon-loadgen -coordinator 127.0.0.1:7100 -tenants 4 -jobs 64 -iterations 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"echelonflow/internal/dag"
	"echelonflow/internal/queue"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// config is one loadgen run.
type config struct {
	addr       string
	tenants    int
	jobs       int
	iterations int
	maxWorkers int
	paradigms  []string
	seed       int64
	timeout    time.Duration
	verbose    bool
}

// stats aggregates the run across tenants.
type stats struct {
	flowEvents int64 // atomic: flow lifecycle messages sent

	mu        sync.Mutex
	submitted int
	admitted  int
	rejected  int
	departed  int
	throttled int // throttle/queue-full pushbacks absorbed by retry
	waits     []time.Duration
	elapsed   time.Duration
}

// waitQuantile returns the q-quantile of recorded admission waits.
func (st *stats) waitQuantile(q float64) time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.waits) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), st.waits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "coordinator", "127.0.0.1:7100", "coordinator control address")
	flag.IntVar(&cfg.tenants, "tenants", 2, "concurrent submitting sessions")
	flag.IntVar(&cfg.jobs, "jobs", 8, "total jobs across all tenants")
	flag.IntVar(&cfg.iterations, "iterations", 4, "training iterations per job (more iterations, more flow events)")
	flag.IntVar(&cfg.maxWorkers, "workers", 3, "max workers per job (must fit the fabric; ps jobs use one more host)")
	paradigms := flag.String("paradigms", "dp,ps,pp,1f1b,tp,fsdp", "paradigm mix to draw jobs from")
	flag.Int64Var(&cfg.seed, "seed", 1, "job stream seed")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Minute, "overall run deadline")
	flag.BoolVar(&cfg.verbose, "v", false, "log each job transition")
	flag.Parse()
	cfg.paradigms = strings.Split(*paradigms, ",")

	st, err := run(cfg)
	if err != nil {
		log.Fatalf("echelon-loadgen: %v", err)
	}
	evs := atomic.LoadInt64(&st.flowEvents)
	secs := st.elapsed.Seconds()
	fmt.Printf("echelon-loadgen: %d jobs (%d admitted, %d rejected, %d retries), %d flow events in %.2fs (%.0f events/s)\n",
		st.submitted, st.admitted, st.rejected, st.throttled, evs, secs, float64(evs)/secs)
	fmt.Printf("echelon-loadgen: admission wait p50=%s p95=%s max=%s\n",
		st.waitQuantile(0.50), st.waitQuantile(0.95), st.waitQuantile(1.0))
	if st.admitted == 0 {
		fmt.Fprintln(os.Stderr, "echelon-loadgen: no job was admitted; is the coordinator running with -queue?")
		os.Exit(1)
	}
}

// run executes the whole load: cfg.jobs jobs dealt round-robin to
// cfg.tenants sessions, each running its share sequentially.
func run(cfg config) (*stats, error) {
	if cfg.tenants < 1 || cfg.jobs < 1 {
		return nil, fmt.Errorf("need at least one tenant and one job")
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	perTenant := make([][]wire.JobSpec, cfg.tenants)
	for i := 0; i < cfg.jobs; i++ {
		t := i % cfg.tenants
		spec := genJob(rng, fmt.Sprintf("lg%d/j%d", t, i), fmt.Sprintf("lg%d", t), cfg)
		perTenant[t] = append(perTenant[t], spec)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	st := &stats{}
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.tenants)
	for t := 0; t < cfg.tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			if err := runTenant(ctx, cfg, fmt.Sprintf("lg%d", t), perTenant[t], st); err != nil {
				errCh <- fmt.Errorf("tenant lg%d: %w", t, err)
				cancel()
			}
		}(t)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	select {
	case err := <-errCh:
		return st, err
	default:
		return st, nil
	}
}

// genJob draws one deterministic job for a tenant.
func genJob(rng *rand.Rand, id, tenant string, cfg config) wire.JobSpec {
	p := cfg.paradigms[rng.Intn(len(cfg.paradigms))]
	workers := 2
	if cfg.maxWorkers > 2 {
		workers += rng.Intn(cfg.maxWorkers - 1)
	}
	j := wire.JobSpec{
		ID: id, Tenant: tenant, Paradigm: p, Workers: workers,
		Layers: 2 + rng.Intn(3),
		Params: unit.Bytes(0.5 + 2*rng.Float64()), Acts: unit.Bytes(0.3 + rng.Float64()),
		Fwd: unit.Time(0.05 + 0.1*rng.Float64()), Bwd: unit.Time(0.05 + 0.1*rng.Float64()),
		Iterations: cfg.iterations,
	}
	switch p {
	case "dp", "ps":
		j.Buckets = rng.Intn(3)
		if p == "ps" {
			j.AggTime = 0.05
		}
	case "pp", "1f1b":
		j.Micro = 2 + rng.Intn(3)
		j.UpdateTime = 0.05
		if j.Layers < workers {
			j.Layers = workers // pipelines need one layer per stage
		}
	case "fsdp":
		j.Prefetch = rng.Intn(3)
	}
	return j
}

// session wraps one tenant's control connection: a background reader
// dispatches job updates and recoverable rejections; everything else
// (allocations, heartbeats) is drained and dropped.
type session struct {
	conn    net.Conn
	codec   *wire.Codec
	updates chan wire.JobUpdate
	rejects chan wire.Error
	readErr chan error
}

func dialSession(ctx context.Context, addr, name string) (*session, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &session{
		conn:    conn,
		codec:   wire.NewCodec(conn),
		updates: make(chan wire.JobUpdate, 64),
		rejects: make(chan wire.Error, 64),
		readErr: make(chan error, 1),
	}
	hello := wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Agent: name, Version: wire.ProtocolVersion}}
	if err := s.codec.Send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	go s.readLoop()
	go s.heartbeatLoop(ctx)
	context.AfterFunc(ctx, func() { conn.Close() })
	return s, nil
}

// heartbeatLoop keeps the session out of the coordinator's silent-agent
// reaper (-session-timeout): a tenant waiting on a queued admission or a
// backlogged departure push would otherwise send nothing for the whole wait.
func (s *session) heartbeatLoop(ctx context.Context) {
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := s.codec.Send(wire.Message{Type: wire.TypeHeartbeat}); err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

func (s *session) readLoop() {
	for {
		msg, err := s.codec.Recv()
		if err != nil {
			s.readErr <- err
			return
		}
		switch msg.Type {
		case wire.TypeJobUpdate:
			s.updates <- *msg.JobUpdate
		case wire.TypeError:
			if msg.Error.Code == "" {
				s.readErr <- fmt.Errorf("coordinator: %s", msg.Error.Msg)
				return
			}
			s.rejects <- *msg.Error
		}
	}
}

// runTenant submits the tenant's jobs one at a time and executes each
// admission to departure.
func runTenant(ctx context.Context, cfg config, name string, jobs []wire.JobSpec, st *stats) error {
	if len(jobs) == 0 {
		return nil
	}
	s, err := dialSession(ctx, cfg.addr, name)
	if err != nil {
		return err
	}
	defer s.conn.Close()
	for _, spec := range jobs {
		if err := submitAndRun(ctx, cfg, s, spec, st); err != nil {
			return err
		}
	}
	return nil
}

// submitAndRun pushes one job through its whole lifecycle, retrying
// throttle and queue-full pushback with a short backoff.
func submitAndRun(ctx context.Context, cfg config, s *session, spec wire.JobSpec, st *stats) error {
	submittedAt := time.Now()
	st.mu.Lock()
	st.submitted++
	st.mu.Unlock()
	for {
		if err := s.codec.Send(wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: spec}}); err != nil {
			return err
		}
		hosts, outcome, err := awaitDecision(ctx, s, spec.ID)
		if err != nil {
			return err
		}
		switch outcome {
		case wire.JobAdmitted:
			st.mu.Lock()
			st.admitted++
			st.waits = append(st.waits, time.Since(submittedAt))
			st.mu.Unlock()
			if cfg.verbose {
				log.Printf("echelon-loadgen: %s admitted on %v", spec.ID, hosts)
			}
			return executeJob(ctx, s, spec, hosts, st)
		case wire.JobRejected:
			st.mu.Lock()
			st.rejected++
			st.mu.Unlock()
			if cfg.verbose {
				log.Printf("echelon-loadgen: %s rejected", spec.ID)
			}
			return nil
		default: // throttled or queue-full: back off and resubmit
			st.mu.Lock()
			st.throttled++
			st.mu.Unlock()
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// awaitDecision waits for the job's admission outcome: its placement, a
// rejection, or a recoverable pushback ("" hosts, error-code outcome).
func awaitDecision(ctx context.Context, s *session, jobID string) ([]string, string, error) {
	for {
		select {
		case u := <-s.updates:
			if u.JobID != jobID {
				continue // stale departure of a previous job
			}
			switch u.Status {
			case wire.JobAdmitted:
				return u.Hosts, wire.JobAdmitted, nil
			case wire.JobRejected:
				return nil, wire.JobRejected, nil
			}
		case e := <-s.rejects:
			if e.Code == wire.ErrCodeBadJob {
				return nil, wire.JobRejected, nil
			}
			return nil, e.Code, nil
		case err := <-s.readErr:
			return nil, "", err
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
}

// executeJob replays the admitted job's flow lifecycle. The workload is
// compiled locally on the admitted placement — the byte-identical
// compilation the coordinator registered — so flow and group IDs line up
// without any extra protocol.
func executeJob(ctx context.Context, s *session, spec wire.JobSpec, hosts []string, st *stats) error {
	w, err := queue.Build(spec, hosts)
	if err != nil {
		return fmt.Errorf("compile admitted job %s: %w", spec.ID, err)
	}
	// Release/finish pairs ride in FlowBatch chunks; the coordinator applies
	// each chunk in order as one frame (one instant, one journal record, one
	// reschedule decision).
	const batchMax = 32
	var batch []wire.FlowEvent
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		msg := wire.Message{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: batch}}
		if err := s.codec.Send(msg); err != nil {
			return err
		}
		atomic.AddInt64(&st.flowEvents, int64(len(batch)))
		batch = batch[:0]
		return nil
	}
	for _, n := range w.Graph.Nodes() {
		if n.Kind != dag.Comm {
			continue
		}
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		for _, event := range []string{wire.EventReleased, wire.EventFinished} {
			batch = append(batch, wire.FlowEvent{GroupID: gid, FlowID: n.ID, Event: event})
			if len(batch) >= batchMax {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if err := flush(); err != nil {
		return err
	}
	// The last finish departs the job; wait for the push so per-tenant
	// submission stays sequential (and throughput numbers include the
	// coordinator's full pipeline, not just our send loop).
	for {
		select {
		case u := <-s.updates:
			if u.JobID == spec.ID && u.Status == wire.JobDeparted {
				st.mu.Lock()
				st.departed++
				st.mu.Unlock()
				return nil
			}
		case err := <-s.readErr:
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
