// Command echelon-coordinator runs the EchelonFlow Coordinator daemon
// (paper Fig. 7): it listens for Agent sessions, schedules registered
// EchelonFlows on every flow arrival/departure, and pushes bandwidth
// allocations.
//
// The fabric capacity model is given as host specs:
//
//	echelon-coordinator -listen :7100 -host w1=1e9 -host w2=1e9
//	echelon-coordinator -listen :7100 -host 'gpu[0-7]=125e6' -scheduler coflow
//
// With -admin a telemetry endpoint serves Prometheus /metrics, /healthz,
// a JSONL /events tail of flow lifecycle events, and /debug/pprof:
//
//	echelon-coordinator -listen :7100 -admin 127.0.0.1:7190 -host w1=1e9 -host w2=1e9
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"echelonflow/internal/coordinator"
	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
)

// hostSpecs collects repeated -host flags.
type hostSpecs []string

func (h *hostSpecs) String() string     { return strings.Join(*h, ",") }
func (h *hostSpecs) Set(v string) error { *h = append(*h, v); return nil }

func main() {
	var hosts hostSpecs
	listen := flag.String("listen", "127.0.0.1:7100", "control listen address")
	schedName := flag.String("scheduler", "echelon", "echelon | coflow | fair")
	coalesce := flag.Duration("coalesce", 0, "batch flow events arriving within this window into one reschedule (0 reschedules per event)")
	interval := flag.Duration("interval", 0, "optional periodic rescheduling interval")
	sessionTimeout := flag.Duration("session-timeout", 30*time.Second, "drop agents silent for this long (0 disables)")
	quarantine := flag.Duration("quarantine", 0, "park a dead agent's groups this long awaiting rejoin (0 evicts immediately)")
	journalDir := flag.String("journal", "", "write-ahead journal directory: state survives a crash and is replayed on restart (empty disables)")
	groupCommit := flag.Duration("group-commit", 0, "journal group-commit window: batch fsyncs up to this long (or -group-commit-bytes) instead of per append; 0 keeps per-append fsync")
	groupCommitBytes := flag.Int("group-commit-bytes", 0, "journal group-commit batch-size flush threshold in bytes (default 256KiB when -group-commit is set)")
	snapshotEvery := flag.Int("journal-snapshot", 256, "with -journal, append a snapshot checkpoint to the log after this many events; the snapshot file is rewritten only when the log outgrows its bound (0 never compacts)")
	redialRate := flag.Float64("redial-rate", 0, "max reconnects per agent name per second (0 disables admission control)")
	redialBurst := flag.Float64("redial-burst", 0, "redial admission burst (default 1 when -redial-rate is set)")
	queueEnable := flag.Bool("queue", false, "accept online job submissions: queue arrivals, place and admit them")
	placement := flag.String("placement", "spread", "with -queue, the worker placement policy: pack | spread | netaware")
	admission := flag.String("admission", "fifo", "with -queue, the admission order: fifo | srpt")
	queueCap := flag.Int("queue-cap", 0, "with -queue, max pending submissions (0 unlimited)")
	admitLimit := flag.Int("admit-limit", 0, "with -queue, max concurrently admitted jobs (0 unlimited)")
	maxShare := flag.Float64("max-share", 0, "with -queue, cap admitted jobs' predicted demand to this fraction of fabric capacity (0 disables)")
	submitRate := flag.Float64("submit-rate", 0, "max job submissions per tenant per second (0 disables throttling)")
	submitBurst := flag.Float64("submit-burst", 0, "submission burst per tenant (default 1 when -submit-rate is set)")
	schedDeadline := flag.Duration("sched-deadline", 0, "time budget per scheduling pass: on overrun push a max-min fair fallback instead of stalling (0 disables)")
	deadlineTrip := flag.Int("deadline-trip", 0, "with -sched-deadline, consecutive overruns that open the fallback circuit breaker (default 3)")
	deadlineCooldown := flag.Duration("deadline-cooldown", 0, "with -sched-deadline, how long the opened breaker holds the fallback before probing recovery (default 10x the budget)")
	shedHighWater := flag.Int("shed-high-water", 0, "shed new job submissions with a throttled error while more than this many inbound events are queued (0 disables)")
	stragglerRTT := flag.Duration("straggler-rtt", 0, "soft-quarantine agents whose heartbeat RTT EWMA exceeds this: their events batch instead of triggering immediate passes (0 disables)")
	pingInterval := flag.Duration("ping-interval", 0, "with -straggler-rtt, the heartbeat probe interval (default 1s)")
	sendBuffer := flag.Int("send-buffer", 0, "outbound frames buffered per agent session; overflowing tears the session down (default 64)")
	inboundQueue := flag.Int("inbound-queue", 0, "inbound events queued per agent session before TCP backpressure (default 256)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-frame write deadline on agent sockets (default 10s)")
	admin := flag.String("admin", "", "telemetry HTTP address serving /metrics, /healthz, /events and /debug/pprof (empty disables)")
	chaos := flag.Bool("chaos", false, "with -admin, mount a POST /chaos fault-injection endpoint (sched-stall, agent-stall, fsync-stall) — soak testing only, never in production")
	fabricFlag := flag.String("fabric", "bigswitch", "network model: bigswitch | leafspine[:hosts=N,spines=N,oversub=R] (spines=1 for racks)")
	flag.Var(&hosts, "host", "host capacity spec name=rate or name[a-b]=rate (repeatable)")
	flag.Parse()

	fspec, err := fabric.ParseSpec(*fabricFlag)
	if err != nil {
		log.Fatalf("echelon-coordinator: %v", err)
	}
	hostNet := fabric.NewNetwork()
	for _, spec := range hosts {
		if err := addHostSpec(hostNet, spec); err != nil {
			log.Fatalf("echelon-coordinator: %v", err)
		}
	}
	if hostNet.Len() == 0 {
		log.Fatal("echelon-coordinator: at least one -host spec is required")
	}
	var net0 fabric.Fabric = hostNet
	if fspec.Kind == "leafspine" {
		caps := make([]fabric.HostCap, 0, hostNet.Len())
		for _, h := range hostNet.Hosts() {
			caps = append(caps, fabric.HostCap{Name: h.Name, Egress: h.Egress, Ingress: h.Ingress})
		}
		ls, err := fspec.Build(caps)
		if err != nil {
			log.Fatalf("echelon-coordinator: %v", err)
		}
		net0 = ls
		log.Printf("echelon-coordinator: fabric %s", fspec)
	}

	var s sched.Scheduler
	switch *schedName {
	case "echelon":
		s = sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()})
	case "coflow":
		s = sched.CoflowMADD{Backfill: true}
	case "fair":
		s = sched.Fair{}
	default:
		log.Fatalf("echelon-coordinator: unknown scheduler %q", *schedName)
	}
	opts := coordinator.Options{
		Net: net0, Scheduler: s, Interval: *interval, SessionTimeout: *sessionTimeout,
		QuarantineTimeout: *quarantine, SnapshotEvery: *snapshotEvery, Coalesce: *coalesce,
		RedialRate: *redialRate, RedialBurst: *redialBurst,
		SubmitRate: *submitRate, SubmitBurst: *submitBurst,
		SchedDeadline: *schedDeadline, DeadlineTripAfter: *deadlineTrip, DeadlineCooldown: *deadlineCooldown,
		ShedHighWater: *shedHighWater, StragglerRTT: *stragglerRTT, PingInterval: *pingInterval,
		SendBuffer: *sendBuffer, InboundQueue: *inboundQueue, WriteTimeout: *writeTimeout,
		GroupCommit: *groupCommit, GroupCommitBytes: *groupCommitBytes,
	}
	if *groupCommit > 0 {
		if *journalDir == "" {
			log.Printf("echelon-coordinator: -group-commit has no effect without -journal")
		} else {
			log.Printf("echelon-coordinator: journal group-commit enabled (window %v)", *groupCommit)
		}
	}
	if *schedDeadline > 0 {
		log.Printf("echelon-coordinator: scheduling passes budgeted at %v (max-min fair fallback on overrun)", *schedDeadline)
	}
	if *stragglerRTT > 0 {
		log.Printf("echelon-coordinator: gray-failure detection armed (soft-quarantine above %v RTT)", *stragglerRTT)
	}
	if *queueEnable {
		placer, err := queue.PlacerByName(*placement)
		if err != nil {
			log.Fatalf("echelon-coordinator: %v", err)
		}
		order, err := queue.OrderByName(*admission)
		if err != nil {
			log.Fatalf("echelon-coordinator: %v", err)
		}
		opts.Queue = queue.New(queue.Options{
			Placer: placer, Order: order,
			MaxQueued: *queueCap, MaxJobs: *admitLimit, MaxShare: *maxShare,
		})
		log.Printf("echelon-coordinator: job queue enabled (%s placement, %s admission)", placer.Name(), order.Name())
	}
	if *admin != "" {
		opts.Metrics = telemetry.NewRegistry()
		opts.Events = telemetry.NewEventLog(telemetry.DefaultEventCapacity)
	}
	var coord *coordinator.Coordinator
	if *journalDir != "" {
		// Restore is New plus journaling: an empty directory is a fresh
		// start, a populated one replays the previous incarnation's state
		// and quarantines its groups until the agents redial.
		coord, err = coordinator.Restore(opts, *journalDir)
	} else {
		coord, err = coordinator.New(opts)
	}
	if err != nil {
		log.Fatalf("echelon-coordinator: %v", err)
	}
	defer coord.Close()
	if *admin != "" {
		var extra map[string]http.HandlerFunc
		if *chaos {
			extra = map[string]http.HandlerFunc{"/chaos": chaosHandler(coord)}
			log.Printf("echelon-coordinator: CHAOS endpoint armed on /chaos — do not expose in production")
		}
		addr, shutdown, err := telemetry.StartAdminWith(*admin, opts.Metrics, opts.Events, nil, extra)
		if err != nil {
			log.Fatalf("echelon-coordinator: admin endpoint: %v", err)
		}
		defer shutdown()
		log.Printf("echelon-coordinator: admin endpoint on http://%s (/metrics /healthz /events /debug/pprof)", addr)
	} else if *chaos {
		log.Fatal("echelon-coordinator: -chaos requires -admin")
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("echelon-coordinator: %v", err)
	}
	log.Printf("echelon-coordinator: scheduling %d hosts with %s on %s", net0.Len(), s.Name(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := coord.Serve(ctx, ln); err != nil {
		log.Fatalf("echelon-coordinator: %v", err)
	}
	computed, pushed := coord.PushStats()
	log.Printf("echelon-coordinator: shut down after %d scheduling decisions (%d/%d allocation entries pushed)",
		coord.Reschedules(), pushed, computed)
}

// chaosHandler serves the -chaos fault-injection surface used by the
// nightly soak: POST /chaos?fault=KIND&d=DURATION injects (or, with d=0,
// clears) one fault.
//
//	fault=sched-stall   d=500ms            count every scheduling pass d slower against -sched-deadline
//	fault=agent-stall   d=2s&agent=lg0     stall writes to one agent's socket
//	fault=fsync-stall   d=20ms             slow every journal fsync
func chaosHandler(coord *coordinator.Coordinator) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		d, err := time.ParseDuration(r.URL.Query().Get("d"))
		if err != nil || d < 0 {
			http.Error(w, "bad or missing d= duration", http.StatusBadRequest)
			return
		}
		switch fault := r.URL.Query().Get("fault"); fault {
		case "sched-stall":
			err = coord.SetSchedStall(d)
		case "agent-stall":
			agent := r.URL.Query().Get("agent")
			if agent == "" {
				http.Error(w, "agent-stall needs agent=", http.StatusBadRequest)
				return
			}
			err = coord.SetAgentStall(agent, d)
		case "fsync-stall":
			coord.SetFsyncStall(d)
		default:
			http.Error(w, fmt.Sprintf("unknown fault %q", fault), http.StatusBadRequest)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintln(w, "ok")
	}
}

// addHostSpec parses "name=rate" or "prefix[a-b]=rate" and adds the hosts.
func addHostSpec(n *fabric.Network, spec string) error {
	name, rateStr, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("host spec %q: want name=rate", spec)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate <= 0 {
		return fmt.Errorf("host spec %q: bad rate %q", spec, rateStr)
	}
	open := strings.Index(name, "[")
	if open < 0 {
		return n.AddHost(name, "", unit.Rate(rate), unit.Rate(rate))
	}
	close0 := strings.Index(name, "]")
	if close0 < open {
		return fmt.Errorf("host spec %q: unbalanced brackets", spec)
	}
	prefix := name[:open]
	lo, hi, ok := strings.Cut(name[open+1:close0], "-")
	if !ok {
		return fmt.Errorf("host spec %q: want prefix[a-b]=rate", spec)
	}
	a, err1 := strconv.Atoi(lo)
	b, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || b < a {
		return fmt.Errorf("host spec %q: bad range", spec)
	}
	for i := a; i <= b; i++ {
		if err := n.AddHost(fmt.Sprintf("%s%d", prefix, i), "", unit.Rate(rate), unit.Rate(rate)); err != nil {
			return err
		}
	}
	return nil
}
