// Package agent implements the EchelonFlow Agent of the paper's system
// sketch (Fig. 7, §5): the shim between a training framework and its
// message-passing backend. The agent registers EchelonFlows with the
// Coordinator, reports flow releases and completions, and enforces the
// Coordinator's bandwidth allocations on the data plane by pacing real TCP
// transfers with per-flow token buckets — the weighted-bandwidth-sharing
// enforcement the paper describes.
//
// The agent survives coordinator-session loss: with Options.Reconnect it
// redials with exponential backoff plus jitter, re-announces its groups,
// and reports in-flight transfers with their byte offsets so scheduling
// resumes from the remainder. The data plane is resumable independently: a
// receiver acknowledges how many bytes of a flow it already holds, and the
// sender continues from that offset instead of restarting from zero.
package agent

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/ratelimit"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// Options configures an Agent.
type Options struct {
	// Name identifies the agent to the Coordinator.
	Name string
	// CoordinatorAddr is the Coordinator's control endpoint.
	CoordinatorAddr string
	// DataAddr, when non-empty, is the listen address for incoming flow
	// payloads (use "127.0.0.1:0" to pick a free port).
	DataAddr string
	// Burst is the token-bucket burst in bytes (default 64 KiB).
	Burst float64
	// Chunk is the paced write size in bytes (default 16 KiB).
	Chunk int
	// Heartbeat is the control-plane keepalive interval (default 5s).
	// Each beat is jittered ±20% so a restarted fleet does not
	// synchronize its heartbeats. Must not be negative; set
	// DisableHeartbeat to turn keepalives off.
	Heartbeat time.Duration
	// DisableHeartbeat turns off control-plane keepalives.
	DisableHeartbeat bool
	// Reconnect enables automatic redial of a lost coordinator session
	// with exponential backoff + jitter. On reconnect the agent replays
	// its handshake, re-registers its groups, and reports in-flight flows
	// with their current byte offsets.
	Reconnect bool
	// ReconnectBackoff is the initial redial delay (default 100ms; it
	// doubles per failed attempt up to ReconnectMax).
	ReconnectBackoff time.Duration
	// ReconnectMax caps the redial delay (default 5s).
	ReconnectMax time.Duration
	// JitterSeed seeds the heartbeat/backoff jitter stream; zero draws a
	// seed from the clock. Fixing it makes fault-injection runs
	// reproducible.
	JitterSeed int64
	// Metrics, when non-nil, receives agent telemetry: reconnect attempt
	// counters and the heartbeat round-trip histogram. Nil costs nothing.
	Metrics *telemetry.Registry
	// Events, when non-nil, receives lifecycle events (reconnects).
	Events *telemetry.EventLog
	// Logf receives diagnostics; defaults to log.Printf.
	Logf func(format string, args ...interface{})
}

func (o *Options) validate() error {
	if o.Name == "" {
		return fmt.Errorf("agent: Name is required")
	}
	if o.CoordinatorAddr == "" {
		return fmt.Errorf("agent: CoordinatorAddr is required")
	}
	if o.Burst < 0 {
		return fmt.Errorf("agent: negative Burst %v", o.Burst)
	}
	if o.Chunk < 0 {
		return fmt.Errorf("agent: negative Chunk %d", o.Chunk)
	}
	if o.Heartbeat < 0 {
		return fmt.Errorf("agent: negative Heartbeat %v (set DisableHeartbeat to disable keepalives)", o.Heartbeat)
	}
	if o.ReconnectBackoff < 0 {
		return fmt.Errorf("agent: negative ReconnectBackoff %v", o.ReconnectBackoff)
	}
	if o.ReconnectMax < 0 {
		return fmt.Errorf("agent: negative ReconnectMax %v", o.ReconnectMax)
	}
	if o.Burst == 0 {
		o.Burst = 64 << 10
	}
	if o.Chunk == 0 {
		o.Chunk = 16 << 10
	}
	if float64(o.Chunk) > o.Burst {
		return fmt.Errorf("agent: chunk %d exceeds burst %v", o.Chunk, o.Burst)
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 5 * time.Second
	}
	if o.ReconnectBackoff == 0 {
		o.ReconnectBackoff = 100 * time.Millisecond
	}
	if o.ReconnectMax == 0 {
		o.ReconnectMax = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return nil
}

// flowProg tracks a sending flow across session loss: base is the byte
// offset acknowledged by the receiver at dial time, bytes counts what this
// agent has written since. base+bytes is the delivered offset reported on
// resume.
type flowProg struct {
	groupID string
	base    int64
	bytes   int64
	active  bool
}

// Agent is a live EchelonFlow agent. Create with Dial; Close releases all
// resources.
type Agent struct {
	opts   Options
	dataLn net.Listener

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// sessMu guards the current control session; reconnects swap it.
	sessMu sync.RWMutex
	conn   net.Conn
	codec  *wire.Codec

	mu         sync.Mutex
	cond       *sync.Cond // broadcast when recvActive changes
	buckets    map[string]*ratelimit.Bucket
	lastRates  map[string]unit.Rate
	received   map[string]int64
	recvDone   map[string]chan struct{}
	recvActive map[string]bool
	progress   map[string]*flowProg
	groups     map[string]*core.EchelonFlow
	// pendingFinish queues finish reports whose send failed mid-outage
	// (flow ID -> group ID); the next successful redial replays them so a
	// transfer completing while the coordinator is away is not lost.
	pendingFinish map[string]string

	rngMu sync.Mutex
	rng   *rand.Rand

	// Telemetry handles (nil-safe no-ops when Options.Metrics is nil).
	telAttempts   *telemetry.Counter
	telReconnects *telemetry.Counter
	telRTT        *telemetry.Histogram

	// hbMu guards heartbeat send timestamps awaiting the coordinator's
	// echo; capped so a non-echoing (older) coordinator cannot grow it.
	hbMu      sync.Mutex
	hbPending []time.Time
}

// maxPendingHeartbeats bounds the RTT-correlation queue against
// coordinators that never echo heartbeats.
const maxPendingHeartbeats = 16

// Dial connects to the Coordinator, performs the handshake, and starts the
// allocation listener and (if configured) the data-plane listener.
func Dial(ctx context.Context, opts Options) (*Agent, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", opts.CoordinatorAddr)
	if err != nil {
		return nil, fmt.Errorf("agent: dial coordinator: %w", err)
	}
	actx, cancel := context.WithCancel(context.Background())
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	a := &Agent{
		opts: opts, conn: conn, codec: wire.NewCodec(conn),
		ctx: actx, cancel: cancel,
		buckets:       make(map[string]*ratelimit.Bucket),
		lastRates:     make(map[string]unit.Rate),
		received:      make(map[string]int64),
		recvDone:      make(map[string]chan struct{}),
		recvActive:    make(map[string]bool),
		progress:      make(map[string]*flowProg),
		groups:        make(map[string]*core.EchelonFlow),
		pendingFinish: make(map[string]string),
		rng:           rand.New(rand.NewSource(seed)),
	}
	a.cond = sync.NewCond(&a.mu)
	a.telAttempts = opts.Metrics.Counter("echelon_agent_reconnect_attempts_total",
		"Coordinator redial attempts (including failures).", "agent", opts.Name)
	a.telReconnects = opts.Metrics.Counter("echelon_agent_reconnects_total",
		"Successful coordinator session re-establishments.", "agent", opts.Name)
	a.telRTT = opts.Metrics.Histogram("echelon_agent_heartbeat_rtt_seconds",
		"Control-plane heartbeat round-trip time.", "agent", opts.Name)
	if err := a.codec.Send(a.helloMessage()); err != nil {
		conn.Close()
		cancel()
		return nil, fmt.Errorf("agent: handshake: %w", err)
	}
	if opts.DataAddr != "" {
		ln, err := net.Listen("tcp", opts.DataAddr)
		if err != nil {
			conn.Close()
			cancel()
			return nil, fmt.Errorf("agent: data listener: %w", err)
		}
		a.dataLn = ln
		a.wg.Add(1)
		go a.acceptLoop()
	}
	a.wg.Add(1)
	go a.controlLoop()
	if !opts.DisableHeartbeat {
		a.wg.Add(1)
		go a.heartbeatLoop()
	}
	return a, nil
}

func (a *Agent) helloMessage() wire.Message {
	return wire.Message{Type: wire.TypeHello,
		Hello: &wire.Hello{Agent: a.opts.Name, Version: wire.ProtocolVersion}}
}

// send dispatches one control message over the current session.
func (a *Agent) send(m wire.Message) error {
	a.sessMu.RLock()
	codec := a.codec
	a.sessMu.RUnlock()
	if codec == nil {
		return fmt.Errorf("agent %s: control session down", a.opts.Name)
	}
	return codec.Send(m)
}

// jittered spreads an interval uniformly over ±20%.
func (a *Agent) jittered(d time.Duration) time.Duration {
	a.rngMu.Lock()
	f := 0.8 + 0.4*a.rng.Float64()
	a.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// heartbeatLoop keeps the control session alive across idle periods. Each
// interval is independently jittered so restarted fleets desynchronize.
func (a *Agent) heartbeatLoop() {
	defer a.wg.Done()
	for {
		t := time.NewTimer(a.jittered(a.opts.Heartbeat))
		select {
		case <-a.ctx.Done():
			t.Stop()
			return
		case <-t.C:
			sentAt := time.Now()
			if err := a.send(wire.Message{Type: wire.TypeHeartbeat}); err == nil {
				a.hbMu.Lock()
				if len(a.hbPending) < maxPendingHeartbeats {
					a.hbPending = append(a.hbPending, sentAt)
				}
				a.hbMu.Unlock()
			} else {
				if a.opts.Reconnect {
					// The control loop is redialing; keep beating.
					continue
				}
				if a.ctx.Err() == nil {
					a.opts.Logf("agent %s: heartbeat failed: %v", a.opts.Name, err)
				}
				return
			}
		}
	}
}

// DataAddr returns the bound data-plane address, or "" without a data plane.
func (a *Agent) DataAddr() string {
	if a.dataLn == nil {
		return ""
	}
	return a.dataLn.Addr().String()
}

// Close tears down both planes and waits for background goroutines.
func (a *Agent) Close() error {
	a.cancel()
	a.sessMu.Lock()
	var err error
	if a.conn != nil {
		err = a.conn.Close()
	}
	a.sessMu.Unlock()
	if a.dataLn != nil {
		a.dataLn.Close()
	}
	a.mu.Lock()
	a.cond.Broadcast()
	a.mu.Unlock()
	a.wg.Wait()
	return err
}

// controlLoop applies pushed allocations; when the session dies and
// Reconnect is enabled it redials and resumes, otherwise it exits.
func (a *Agent) controlLoop() {
	defer a.wg.Done()
	for {
		err := a.readSession()
		if a.ctx.Err() != nil {
			return
		}
		if !a.opts.Reconnect {
			a.opts.Logf("agent %s: control connection lost: %v", a.opts.Name, err)
			return
		}
		a.opts.Logf("agent %s: control connection lost (%v), reconnecting", a.opts.Name, err)
		if a.reconnect() != nil {
			return // context cancelled mid-backoff
		}
	}
}

// readSession consumes the current control session until it fails.
func (a *Agent) readSession() error {
	a.sessMu.RLock()
	codec := a.codec
	a.sessMu.RUnlock()
	if codec == nil {
		return fmt.Errorf("no session")
	}
	for {
		msg, err := codec.Recv()
		if err != nil {
			return err
		}
		switch msg.Type {
		case wire.TypeAllocation:
			a.applyAllocation(msg.Allocation.Rates)
		case wire.TypeHeartbeat:
			if msg.Heartbeat != nil && msg.Heartbeat.Nonce != 0 {
				// Coordinator-initiated RTT ping (wire v3): echo the nonce
				// back verbatim. Deliberately not correlated with hbPending —
				// those are this agent's own keepalives awaiting the
				// coordinator's nonce-less echo, and popping one here would
				// skew the agent-side RTT estimate.
				if err := a.send(wire.Message{Type: wire.TypeHeartbeat,
					Heartbeat: &wire.Heartbeat{Nonce: msg.Heartbeat.Nonce}}); err != nil {
					a.opts.Logf("agent %s: ping echo: %v", a.opts.Name, err)
				}
				continue
			}
			// The coordinator echoes heartbeats; correlate with the oldest
			// outstanding send to measure control-plane RTT.
			a.hbMu.Lock()
			if len(a.hbPending) > 0 {
				sentAt := a.hbPending[0]
				a.hbPending = a.hbPending[1:]
				a.hbMu.Unlock()
				a.telRTT.Observe(time.Since(sentAt).Seconds())
			} else {
				a.hbMu.Unlock()
			}
		case wire.TypeError:
			a.opts.Logf("agent %s: coordinator error: %s", a.opts.Name, msg.Error.Msg)
		default:
			a.opts.Logf("agent %s: unexpected message %q", a.opts.Name, msg.Type)
		}
	}
}

// reconnect redials the coordinator with exponential backoff + jitter
// until it succeeds or the agent closes. On success the session state is
// replayed: handshake, group registrations, and resume events carrying the
// delivered byte offset of every in-flight send.
func (a *Agent) reconnect() error {
	backoff := a.opts.ReconnectBackoff
	for attempt := 1; ; attempt++ {
		delay := a.jittered(backoff)
		t := time.NewTimer(delay)
		select {
		case <-a.ctx.Done():
			t.Stop()
			return a.ctx.Err()
		case <-t.C:
		}
		a.telAttempts.Inc()
		if err := a.redial(); err != nil {
			if a.ctx.Err() != nil {
				return a.ctx.Err()
			}
			backoff *= 2
			if backoff > a.opts.ReconnectMax {
				backoff = a.opts.ReconnectMax
			}
			a.opts.Logf("agent %s: reconnect attempt %d failed: %v (next in ~%v)",
				a.opts.Name, attempt, err, backoff)
			continue
		}
		a.opts.Logf("agent %s: reconnected after %d attempt(s)", a.opts.Name, attempt)
		a.telReconnects.Inc()
		if a.opts.Events != nil {
			a.opts.Events.Append(telemetry.Event{Kind: telemetry.EventReconnect,
				Agent: a.opts.Name, Detail: fmt.Sprintf("after %d attempt(s)", attempt)})
		}
		return nil
	}
}

// redial establishes one new control session and replays agent state.
func (a *Agent) redial() error {
	var d net.Dialer
	conn, err := d.DialContext(a.ctx, "tcp", a.opts.CoordinatorAddr)
	if err != nil {
		return err
	}
	codec := wire.NewCodec(conn)
	if err := codec.Send(a.helloMessage()); err != nil {
		conn.Close()
		return err
	}
	a.sessMu.Lock()
	if a.conn != nil {
		a.conn.Close()
	}
	a.conn, a.codec = conn, codec
	a.sessMu.Unlock()
	// Beats sent into the dead session will never be echoed; dropping them
	// keeps RTT correlation aligned with the new session's echoes.
	a.hbMu.Lock()
	a.hbPending = a.hbPending[:0]
	a.hbMu.Unlock()

	// Re-announce groups, then in-flight transfers with their offsets so
	// the coordinator schedules the remainder, not the full size.
	a.mu.Lock()
	groups := make([]*core.EchelonFlow, 0, len(a.groups))
	for _, g := range a.groups {
		groups = append(groups, g)
	}
	type resume struct {
		groupID, flowID string
		offset          int64
	}
	var resumes []resume
	for id, p := range a.progress {
		if p.active {
			resumes = append(resumes, resume{p.groupID, id, p.base + p.bytes})
		}
	}
	finishes := make(map[string]string, len(a.pendingFinish))
	for id, gid := range a.pendingFinish {
		finishes[id] = gid
	}
	a.mu.Unlock()
	for _, g := range groups {
		if err := a.RegisterGroup(g); err != nil {
			a.opts.Logf("agent %s: re-register %s: %v", a.opts.Name, g.ID, err)
		}
	}
	for _, r := range resumes {
		msg := wire.Message{Type: wire.TypeFlowEvent, FlowEvent: &wire.FlowEvent{
			GroupID: r.groupID, FlowID: r.flowID,
			Event: wire.EventResumed, Offset: unit.Bytes(r.offset)}}
		if err := a.send(msg); err != nil {
			a.opts.Logf("agent %s: resume %s: %v", a.opts.Name, r.flowID, err)
		}
	}
	// Replay finish reports that completed while the coordinator was away.
	for id, gid := range finishes {
		msg := wire.Message{Type: wire.TypeFlowEvent, FlowEvent: &wire.FlowEvent{
			GroupID: gid, FlowID: id, Event: wire.EventFinished}}
		if err := a.send(msg); err != nil {
			a.opts.Logf("agent %s: replay finish %s: %v", a.opts.Name, id, err)
			continue // still pending; the next redial retries
		}
		a.mu.Lock()
		delete(a.pendingFinish, id)
		a.mu.Unlock()
	}
	return nil
}

// applyAllocation updates bucket rates, remembering rates for flows whose
// buckets do not exist yet (allocation can race ahead of SendFlow).
func (a *Agent) applyAllocation(rates map[string]unit.Rate) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, r := range rates {
		a.lastRates[id] = r
		if b, ok := a.buckets[id]; ok {
			b.SetRate(float64(r))
		}
	}
}

// RegisterGroup announces an EchelonFlow to the Coordinator and remembers
// it for replay after a reconnect.
func (a *Agent) RegisterGroup(g *core.EchelonFlow) error {
	reg, err := wire.RegisterOf(g)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.groups[g.ID] = g
	a.mu.Unlock()
	return a.send(wire.Message{Type: wire.TypeRegister, Register: &reg})
}

// UnregisterGroup removes an EchelonFlow.
func (a *Agent) UnregisterGroup(groupID string) error {
	a.mu.Lock()
	delete(a.groups, groupID)
	a.mu.Unlock()
	return a.send(wire.Message{Type: wire.TypeUnregister, Unregister: &wire.Unregister{GroupID: groupID}})
}

// SendFlow transfers size bytes of flow data to the destination agent's
// data plane, paced by the Coordinator's allocation. It reports the flow
// released before the first byte and finished after the last, and blocks
// until done. The flow starts paused until the first allocation arrives.
//
// The receiver acknowledges how many bytes of the flow it already holds;
// SendFlow skips that prefix, so retrying an interrupted transfer (or
// re-sending after an agent restart) continues from the last delivered
// byte instead of restarting — the control plane learns the offset via a
// "resumed" event.
func (a *Agent) SendFlow(ctx context.Context, groupID, flowID string, size int64, dstAddr string) error {
	if size < 0 {
		return fmt.Errorf("agent: negative flow size")
	}
	bucket, err := ratelimit.NewBucket(0, a.opts.Burst)
	if err != nil {
		return err
	}
	a.mu.Lock()
	if p := a.progress[flowID]; p != nil && p.active {
		a.mu.Unlock()
		return fmt.Errorf("agent: flow %q already sending", flowID)
	}
	prog := a.progress[flowID]
	if prog == nil {
		prog = &flowProg{}
		a.progress[flowID] = prog
	}
	prog.groupID = groupID
	prog.active = true
	a.buckets[flowID] = bucket
	if r, ok := a.lastRates[flowID]; ok {
		bucket.SetRate(float64(r))
	}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.buckets, flowID)
		prog.active = false
		a.mu.Unlock()
	}()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", dstAddr)
	if err != nil {
		return fmt.Errorf("agent: dial data plane: %w", err)
	}
	defer conn.Close()
	if err := writeDataHeader(conn, flowID, size); err != nil {
		return err
	}
	offset, err := readDataAck(conn)
	if err != nil {
		return fmt.Errorf("agent: flow %q offset ack: %w", flowID, err)
	}
	if offset > size {
		return fmt.Errorf("agent: flow %q receiver acked %d beyond size %d", flowID, offset, size)
	}
	a.mu.Lock()
	prog.base = offset
	a.mu.Unlock()

	ev := &wire.FlowEvent{GroupID: groupID, FlowID: flowID, Event: wire.EventReleased}
	if offset > 0 {
		ev.Event = wire.EventResumed
		ev.Offset = unit.Bytes(offset)
	}
	if err := a.send(wire.Message{Type: wire.TypeFlowEvent, FlowEvent: ev}); err != nil {
		return fmt.Errorf("agent: report release: %w", err)
	}

	chunk := make([]byte, a.opts.Chunk)
	for sent := offset; sent < size; {
		n := int64(len(chunk))
		if size-sent < n {
			n = size - sent
		}
		if err := bucket.Wait(ctx, float64(n)); err != nil {
			return fmt.Errorf("agent: pacing flow %q: %w", flowID, err)
		}
		if _, err := conn.Write(chunk[:n]); err != nil {
			return fmt.Errorf("agent: send flow %q: %w", flowID, err)
		}
		sent += n
		a.mu.Lock()
		prog.bytes += n
		a.mu.Unlock()
	}

	finish := wire.Message{Type: wire.TypeFlowEvent,
		FlowEvent: &wire.FlowEvent{GroupID: groupID, FlowID: flowID, Event: wire.EventFinished}}
	if err := a.send(finish); err != nil {
		if a.opts.Reconnect {
			// The payload is fully delivered; only the report was lost to a
			// dead session. Queue it for the next redial instead of failing
			// a transfer that actually succeeded.
			a.mu.Lock()
			a.pendingFinish[flowID] = groupID
			a.mu.Unlock()
			a.opts.Logf("agent %s: finish report for %s deferred to reconnect: %v", a.opts.Name, flowID, err)
			return nil
		}
		return fmt.Errorf("agent: report finish: %w", err)
	}
	return nil
}

// SentBytes reports how many payload bytes this agent has written for a
// flow (excluding any prefix delivered by a previous incarnation and
// skipped via the resume ack).
func (a *Agent) SentBytes(flowID string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p := a.progress[flowID]; p != nil {
		return p.bytes
	}
	return 0
}

// ReceivedBytes reports how many payload bytes have arrived for a flow.
func (a *Agent) ReceivedBytes(flowID string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.received[flowID]
}

// WaitReceived blocks until the named flow's payload has fully arrived on
// this agent's data plane, or the context is cancelled.
func (a *Agent) WaitReceived(ctx context.Context, flowID string) error {
	a.mu.Lock()
	ch, ok := a.recvDone[flowID]
	if !ok {
		ch = make(chan struct{})
		a.recvDone[flowID] = ch
	}
	a.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acceptLoop serves the data plane.
func (a *Agent) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.dataLn.Accept()
		if err != nil {
			return
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			defer conn.Close()
			if err := a.receiveFlow(conn); err != nil && a.ctx.Err() == nil {
				a.opts.Logf("agent %s: data plane: %v", a.opts.Name, err)
			}
		}()
	}
}

// receiveFlow drains one incoming flow, accounting its bytes. It first
// acknowledges how much of the flow already arrived (from an interrupted
// earlier connection) so the sender resumes from that offset. Concurrent
// connections for the same flow serialize.
func (a *Agent) receiveFlow(conn net.Conn) error {
	flowID, size, err := readDataHeader(conn)
	if err != nil {
		return err
	}
	a.mu.Lock()
	for a.recvActive[flowID] && a.ctx.Err() == nil {
		a.cond.Wait()
	}
	if a.ctx.Err() != nil {
		a.mu.Unlock()
		return a.ctx.Err()
	}
	a.recvActive[flowID] = true
	got := a.received[flowID]
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.recvActive[flowID] = false
		a.cond.Broadcast()
		a.mu.Unlock()
	}()

	if err := writeDataAck(conn, got); err != nil {
		return fmt.Errorf("flow %q ack: %w", flowID, err)
	}
	buf := make([]byte, 32<<10)
	for got < size {
		want := int64(len(buf))
		if size-got < want {
			want = size - got
		}
		n, err := conn.Read(buf[:want])
		if n > 0 {
			got += int64(n)
			a.mu.Lock()
			a.received[flowID] = got
			a.mu.Unlock()
		}
		if err != nil {
			if err == io.EOF && got == size {
				break
			}
			return fmt.Errorf("flow %q truncated at %d/%d: %w", flowID, got, size, err)
		}
	}
	a.mu.Lock()
	ch, ok := a.recvDone[flowID]
	if !ok {
		ch = make(chan struct{})
		a.recvDone[flowID] = ch
	}
	select {
	case <-ch:
	default:
		close(ch)
	}
	a.mu.Unlock()
	return nil
}

// writeDataHeader frames a flow's identity and size on the data plane.
func writeDataHeader(w io.Writer, flowID string, size int64) error {
	id := []byte(flowID)
	if len(id) > 1<<16 {
		return fmt.Errorf("agent: flow ID too long")
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(id)))
	binary.BigEndian.PutUint64(hdr[4:], uint64(size))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("agent: write data header: %w", err)
	}
	if _, err := w.Write(id); err != nil {
		return fmt.Errorf("agent: write data header: %w", err)
	}
	return nil
}

// readDataHeader parses the data-plane framing.
func readDataHeader(r io.Reader) (string, int64, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", 0, fmt.Errorf("read data header: %w", err)
	}
	idLen := binary.BigEndian.Uint32(hdr[:4])
	if idLen > 1<<16 {
		return "", 0, fmt.Errorf("data header id length %d too large", idLen)
	}
	size := int64(binary.BigEndian.Uint64(hdr[4:]))
	if size < 0 {
		return "", 0, fmt.Errorf("negative flow size")
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(r, id); err != nil {
		return "", 0, fmt.Errorf("read flow id: %w", err)
	}
	return string(id), size, nil
}

// writeDataAck reports the receiver's current byte offset for a flow; the
// sender skips that prefix.
func writeDataAck(w io.Writer, offset int64) error {
	var ack [8]byte
	binary.BigEndian.PutUint64(ack[:], uint64(offset))
	_, err := w.Write(ack[:])
	return err
}

// readDataAck parses the receiver's resume offset.
func readDataAck(r io.Reader) (int64, error) {
	var ack [8]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		return 0, err
	}
	off := int64(binary.BigEndian.Uint64(ack[:]))
	if off < 0 {
		return 0, fmt.Errorf("negative resume offset")
	}
	return off, nil
}
