// Command echelon-agent runs a standalone EchelonFlow Agent (paper Fig. 7):
// it connects to the Coordinator, optionally serves a data plane for
// incoming flows, and can drive a demo pipeline EchelonFlow of real bytes
// against a peer agent.
//
// Receiver:
//
//	echelon-agent -name a2 -coordinator 127.0.0.1:7100 -data 127.0.0.1:7201
//
// Sender (3 pipeline flows of 1 MiB from host w1 to w2):
//
//	echelon-agent -name a1 -coordinator 127.0.0.1:7100 \
//	    -send w1,w2,3,1048576,0.25 -peer 127.0.0.1:7201
//
// With -admin a telemetry endpoint serves Prometheus /metrics (reconnect
// counters, heartbeat RTT), /healthz, /events and /debug/pprof:
//
//	echelon-agent -name a1 -coordinator 127.0.0.1:7100 -admin 127.0.0.1:7191
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"echelonflow/internal/agent"
	"echelonflow/internal/core"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
)

func main() {
	name := flag.String("name", "", "agent name (required)")
	coord := flag.String("coordinator", "127.0.0.1:7100", "coordinator control address")
	data := flag.String("data", "", "data-plane listen address (receivers)")
	send := flag.String("send", "", "demo send spec: src,dst,flows,bytes,T")
	peer := flag.String("peer", "", "peer agent data-plane address (senders)")
	reconnect := flag.Bool("reconnect", false, "redial a lost coordinator session with backoff and resume in-flight flows")
	backoff := flag.Duration("reconnect-backoff", 100*time.Millisecond, "initial redial delay (doubles up to 5s)")
	admin := flag.String("admin", "", "telemetry HTTP address serving /metrics, /healthz, /events and /debug/pprof (empty disables)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	aopts := agent.Options{
		Name: *name, CoordinatorAddr: *coord, DataAddr: *data,
		Reconnect: *reconnect, ReconnectBackoff: *backoff,
	}
	if *admin != "" {
		aopts.Metrics = telemetry.NewRegistry()
		aopts.Events = telemetry.NewEventLog(telemetry.DefaultEventCapacity)
		addr, shutdown, err := telemetry.StartAdmin(*admin, aopts.Metrics, aopts.Events, nil)
		if err != nil {
			log.Fatalf("echelon-agent: admin endpoint: %v", err)
		}
		defer shutdown()
		log.Printf("echelon-agent %s: admin endpoint on http://%s (/metrics /healthz /events /debug/pprof)", *name, addr)
	}
	a, err := agent.Dial(ctx, aopts)
	if err != nil {
		log.Fatalf("echelon-agent: %v", err)
	}
	defer a.Close()
	if *data != "" {
		log.Printf("echelon-agent %s: data plane on %s", *name, a.DataAddr())
	}

	if *send == "" {
		log.Printf("echelon-agent %s: connected to %s; waiting (ctrl-c to exit)", *name, *coord)
		<-ctx.Done()
		return
	}

	src, dst, flows, size, T, err := parseSendSpec(*send)
	if err != nil {
		log.Fatalf("echelon-agent: %v", err)
	}
	if *peer == "" {
		log.Fatal("echelon-agent: -send requires -peer")
	}
	if err := runDemoSend(ctx, a, src, dst, flows, size, T, *peer); err != nil {
		log.Fatalf("echelon-agent: %v", err)
	}
}

// parseSendSpec parses "src,dst,flows,bytes,T".
func parseSendSpec(spec string) (src, dst string, flows int, size int64, T float64, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 5 {
		return "", "", 0, 0, 0, fmt.Errorf("send spec %q: want src,dst,flows,bytes,T", spec)
	}
	src, dst = parts[0], parts[1]
	flows, err = strconv.Atoi(parts[2])
	if err != nil || flows < 1 {
		return "", "", 0, 0, 0, fmt.Errorf("send spec %q: bad flow count", spec)
	}
	size, err = strconv.ParseInt(parts[3], 10, 64)
	if err != nil || size < 0 {
		return "", "", 0, 0, 0, fmt.Errorf("send spec %q: bad size", spec)
	}
	T, err = strconv.ParseFloat(parts[4], 64)
	if err != nil || T < 0 {
		return "", "", 0, 0, 0, fmt.Errorf("send spec %q: bad T", spec)
	}
	return src, dst, flows, size, T, nil
}

// runDemoSend registers a pipeline EchelonFlow and streams its flows to the
// peer, staggering releases by T to mimic upstream computation.
func runDemoSend(ctx context.Context, a *agent.Agent, src, dst string, flows int, size int64, T float64, peer string) error {
	groupID := fmt.Sprintf("demo-%d", os.Getpid())
	specs := make([]*core.Flow, flows)
	for i := range specs {
		specs[i] = &core.Flow{
			ID:  fmt.Sprintf("%s/f%d", groupID, i),
			Src: src, Dst: dst, Size: unit.Bytes(size), Stage: i,
		}
	}
	g, err := core.New(groupID, core.Pipeline{T: unit.Time(T)}, specs...)
	if err != nil {
		return err
	}
	if err := a.RegisterGroup(g); err != nil {
		return err
	}
	log.Printf("echelon-agent: registered %s", g)

	start := time.Now()
	errCh := make(chan error, flows)
	for i, f := range specs {
		go func(id string) {
			err := a.SendFlow(ctx, groupID, id, size, peer)
			if err == nil {
				log.Printf("echelon-agent: %s finished at %.3fs", id, time.Since(start).Seconds())
			}
			errCh <- err
		}(f.ID)
		if i < flows-1 {
			select {
			case <-time.After(time.Duration(T * float64(time.Second))):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	for range specs {
		if err := <-errCh; err != nil {
			return err
		}
	}
	return a.UnregisterGroup(groupID)
}
