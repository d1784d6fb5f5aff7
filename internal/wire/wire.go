// Package wire is the control protocol between EchelonFlow Agents and the
// Coordinator (Fig. 7). Agents report EchelonFlow registrations (arrangement
// function + per-flow size/source/destination, §5) and flow lifecycle
// events; the Coordinator pushes bandwidth allocations back.
//
// Every message has exactly one encoding. The handshake — an agent's hello,
// and the one error that refuses it — is a 4-byte big-endian length followed
// by a JSON body (handshake.go), so that a peer of any protocol revision can
// read why it was refused. Every other message is a binary frame (binary.go)
// opening with the magic byte 0xEC, which can never begin a legal JSON length
// prefix (MaxFrame caps the first length byte at 0x01): a receiver tells the
// two framings apart per frame, with no negotiation state.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// MaxFrame bounds a single message to keep a misbehaving peer from forcing
// unbounded allocation.
const MaxFrame = 16 << 20

// ProtocolVersion is the control-protocol revision, and the only one a
// coordinator accepts: a hello announcing any other version is refused with
// one JSON-framed error naming this one. Version 2 added reconnect support:
// Hello.Version, and the "resumed" flow event carrying a byte offset so a
// rejoining agent can continue an in-flight transfer. Version 3 added the
// optional Heartbeat payload: a coordinator pings an agent with a nonce'd
// heartbeat, which the agent echoes back verbatim so the coordinator can
// measure per-agent RTT for gray-failure (straggler) detection; nonce-less
// heartbeats are plain keepalives. Version 4 made every frame after the
// handshake binary (see binary.go) and added the flow_batch message.
const ProtocolVersion = 4

// Message type tags.
const (
	TypeHello      = "hello"
	TypeRegister   = "register"
	TypeUnregister = "unregister"
	TypeFlowEvent  = "flow_event"
	TypeAllocation = "allocation"
	TypeHeartbeat  = "heartbeat"
	TypeError      = "error"
	// TypeSubmitJob enqueues a training job on the coordinator's arrival
	// queue; TypeJobUpdate pushes the job's lifecycle transitions (queued,
	// admitted with a placement, rejected, departed) back to the submitter.
	TypeSubmitJob = "submit_job"
	TypeJobUpdate = "job_update"
	// TypeFlowBatch (protocol 4) carries many flow lifecycle events in one
	// frame: an agent draining a burst of releases/finishes amortizes the
	// framing and syscall cost, and the coordinator acknowledges the whole
	// batch with a single conflated allocation push.
	TypeFlowBatch = "flow_batch"
)

// Flow event kinds.
const (
	EventReleased = "released"
	EventFinished = "finished"
	// EventResumed is sent by a rejoining agent for a flow that was
	// in-flight when its previous session died: Offset bytes are already
	// delivered, scheduling continues from the remainder.
	EventResumed = "resumed"
)

// FlowSpec mirrors core.Flow for transport.
type FlowSpec struct {
	ID    string     `json:"id"`
	Src   string     `json:"src"`
	Dst   string     `json:"dst"`
	Size  unit.Bytes `json:"size"`
	Stage int        `json:"stage"`
}

// Hello opens an agent session. An agent reconnecting under the same name
// takes over its previous session: parked groups are revived in place.
type Hello struct {
	Agent string `json:"agent"`
	// Version is the sender's ProtocolVersion (zero: a pre-versioning peer,
	// which a coordinator refuses like any other version but its own).
	Version int `json:"version,omitempty"`
}

// Register announces an EchelonFlow: its arrangement function and flows.
type Register struct {
	GroupID     string     `json:"group_id"`
	Arrangement core.Spec  `json:"arrangement"`
	Flows       []FlowSpec `json:"flows"`
	Weight      float64    `json:"weight,omitempty"`
}

// Group reconstructs the registered EchelonFlow.
func (r Register) Group() (*core.EchelonFlow, error) {
	arr, err := r.Arrangement.Build()
	if err != nil {
		return nil, err
	}
	flows := make([]*core.Flow, len(r.Flows))
	for i, f := range r.Flows {
		flows[i] = &core.Flow{ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size, Stage: f.Stage}
	}
	g, err := core.New(r.GroupID, arr, flows...)
	if err != nil {
		return nil, err
	}
	g.Weight = r.Weight
	return g, nil
}

// RegisterOf serializes an EchelonFlow for transport.
func RegisterOf(g *core.EchelonFlow) (Register, error) {
	spec, err := core.SpecOf(g.Arrangement)
	if err != nil {
		return Register{}, err
	}
	flows := make([]FlowSpec, len(g.Flows))
	for i, f := range g.Flows {
		flows[i] = FlowSpec{ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size, Stage: f.Stage}
	}
	return Register{GroupID: g.ID, Arrangement: spec, Flows: flows, Weight: g.Weight}, nil
}

// AppendRegister appends r's binary encoding: a register frame's body, and
// the form journals keep. A round trip through it equals one through JSON: a
// nil flow list stays nil, an empty one empty, and non-finite floats are
// refused.
func AppendRegister(b []byte, r *Register) ([]byte, error) {
	b = AppendString(AppendString(b, r.GroupID), r.Arrangement.Kind)
	b, err := AppendFloat(b, float64(r.Arrangement.T))
	if err != nil {
		return nil, err
	}
	for _, ts := range [...][]unit.Time{r.Arrangement.Gaps, r.Arrangement.Offs} {
		b = binary.AppendUvarint(b, uint64(len(ts)))
		for _, t := range ts {
			if b, err = AppendFloat(b, float64(t)); err != nil {
				return nil, err
			}
		}
	}
	b = AppendSliceLen(b, len(r.Flows), r.Flows == nil)
	for i := range r.Flows {
		f := &r.Flows[i]
		b = AppendString(AppendString(AppendString(b, f.ID), f.Src), f.Dst)
		if b, err = AppendFloat(b, float64(f.Size)); err != nil {
			return nil, err
		}
		b = binary.AppendVarint(b, int64(f.Stage))
	}
	return AppendFloat(b, r.Weight)
}

// Register reads one registration written by AppendRegister.
func (r *Reader) Register() Register {
	reg := Register{GroupID: r.Str(), Arrangement: core.Spec{Kind: r.Str(), T: unit.Time(r.Float())}}
	reg.Arrangement.Gaps, reg.Arrangement.Offs = r.times(), r.times()
	if n, isNil := r.SliceLen(minFlowSpecBytes); !isNil {
		reg.Flows = make([]FlowSpec, n)
	}
	for i := range reg.Flows {
		reg.Flows[i] = FlowSpec{ID: r.Str(), Src: r.Str(), Dst: r.Str(), Size: unit.Bytes(r.Float()), Stage: r.Int()}
	}
	reg.Weight = r.Float()
	return reg
}

// times reads a count and that many floats; none decode as nil, as an
// omitted JSON list does.
func (r *Reader) times() []unit.Time {
	n := r.Count(minFloatBytes)
	if n == 0 {
		return nil
	}
	ts := make([]unit.Time, n)
	for i := range ts {
		ts[i] = unit.Time(r.Float())
	}
	return ts
}

// Unregister removes an EchelonFlow (job departure).
type Unregister struct {
	GroupID string `json:"group_id"`
}

// FlowEvent reports a flow lifecycle transition.
type FlowEvent struct {
	GroupID string `json:"group_id"`
	FlowID  string `json:"flow_id"`
	Event   string `json:"event"` // EventReleased, EventFinished or EventResumed
	// Offset is the bytes already delivered, set on EventResumed.
	Offset unit.Bytes `json:"offset,omitempty"`
}

// validate checks one flow event's shape (shared by the single-event and
// batched envelopes).
func (e *FlowEvent) validate() error {
	if e.Event != EventReleased && e.Event != EventFinished && e.Event != EventResumed {
		return fmt.Errorf("wire: unknown flow event %q", e.Event)
	}
	if e.Offset < 0 {
		return fmt.Errorf("wire: negative flow event offset")
	}
	if !finite(float64(e.Offset)) {
		return fmt.Errorf("wire: non-finite flow event offset")
	}
	return nil
}

// FlowBatch reports many flow lifecycle transitions at once, in order. The
// coordinator applies a batch as one unit of work: every event at one
// instant, in order, a refused event reported on its own without stopping
// the rest, then one journal record and one reschedule decision for the
// whole frame (DESIGN.md, "Wire protocol v4").
type FlowBatch struct {
	Events []FlowEvent `json:"events"`
}

// Allocation pushes per-flow rates (bytes/second).
type Allocation struct {
	Rates map[string]unit.Rate `json:"rates"`
}

// Heartbeat is the optional payload of a heartbeat message (version 3). A
// coordinator-initiated ping carries a non-zero Nonce; the agent echoes the
// payload verbatim, and the echo's arrival time gives the coordinator the
// session RTT. Agent-initiated keepalives carry no payload (or Nonce 0) and
// are echoed without one, exactly as in version 2 — the nonce is what keeps
// the two uses from skewing each other's bookkeeping.
type Heartbeat struct {
	Nonce uint64 `json:"nonce,omitempty"`
}

// JobSpec describes a training job for online submission: the paradigm and
// model shape the coordinator compiles into a workload once a placement
// policy has bound Workers hosts (plus one extra host for "ps"). It mirrors
// the internal/check job shape but carries a worker *count* instead of
// concrete hosts — host binding is the coordinator's decision.
type JobSpec struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	Paradigm string `json:"paradigm"` // dp | ps | pp | 1f1b | tp | fsdp
	Workers  int    `json:"workers"`
	// Model shape (ddlt.Uniform parameters).
	Layers int        `json:"layers"`
	Params unit.Bytes `json:"params"`
	Acts   unit.Bytes `json:"acts"`
	Fwd    unit.Time  `json:"fwd"`
	Bwd    unit.Time  `json:"bwd"`
	// Paradigm-specific knobs (same semantics as internal/check.JobSpec).
	AggTime    unit.Time `json:"agg_time,omitempty"`
	Buckets    int       `json:"buckets,omitempty"`
	Micro      int       `json:"micro,omitempty"`
	UpdateTime unit.Time `json:"update_time,omitempty"`
	Prefetch   int       `json:"prefetch,omitempty"`
	Iterations int       `json:"iterations"`
	Weight     float64   `json:"weight,omitempty"`
	// Declared is the submitter's claimed per-iteration time, the admission
	// estimator's fallback when no profile measurement is available.
	Declared unit.Time `json:"declared,omitempty"`
}

// Validate checks the spec's shape (paradigm validity is the queue's call).
func (j JobSpec) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("wire: job without id")
	}
	if j.Workers < 1 {
		return fmt.Errorf("wire: job %q needs >=1 worker", j.ID)
	}
	if j.Layers < 1 {
		return fmt.Errorf("wire: job %q needs >=1 layer", j.ID)
	}
	if j.Iterations < 1 {
		return fmt.Errorf("wire: job %q needs >=1 iteration", j.ID)
	}
	if j.Params < 0 || j.Acts < 0 || j.Fwd < 0 || j.Bwd < 0 || j.AggTime < 0 ||
		j.UpdateTime < 0 || j.Declared < 0 || j.Weight < 0 {
		return fmt.Errorf("wire: job %q has a negative field", j.ID)
	}
	return nil
}

// AppendJobSpec appends j's binary encoding: a submit_job frame's body, and
// the form journals keep. Non-finite floats are refused, as JSON refuses
// them.
func AppendJobSpec(b []byte, j *JobSpec) ([]byte, error) {
	b = AppendString(AppendString(AppendString(b, j.ID), j.Tenant), j.Paradigm)
	for _, n := range [...]int{j.Workers, j.Layers, j.Buckets, j.Micro, j.Prefetch, j.Iterations} {
		b = binary.AppendVarint(b, int64(n))
	}
	var err error
	for _, f := range [...]float64{float64(j.Params), float64(j.Acts), float64(j.Fwd), float64(j.Bwd),
		float64(j.AggTime), float64(j.UpdateTime), j.Weight, float64(j.Declared)} {
		if b, err = AppendFloat(b, f); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// JobSpec reads one spec written by AppendJobSpec.
func (r *Reader) JobSpec() JobSpec {
	j := JobSpec{ID: r.Str(), Tenant: r.Str(), Paradigm: r.Str()}
	j.Workers, j.Layers, j.Buckets, j.Micro, j.Prefetch, j.Iterations = r.Int(), r.Int(), r.Int(), r.Int(), r.Int(), r.Int()
	j.Params, j.Acts = unit.Bytes(r.Float()), unit.Bytes(r.Float())
	j.Fwd, j.Bwd, j.AggTime, j.UpdateTime = unit.Time(r.Float()), unit.Time(r.Float()), unit.Time(r.Float()), unit.Time(r.Float())
	j.Weight, j.Declared = r.Float(), unit.Time(r.Float())
	return j
}

// SubmitJob asks the coordinator to queue a job for admission.
type SubmitJob struct {
	Job JobSpec `json:"job"`
}

// Job lifecycle states carried by JobUpdate.
const (
	JobQueued   = "queued"
	JobAdmitted = "admitted"
	JobRejected = "rejected"
	JobDeparted = "departed"
)

// JobUpdate reports a queued job's lifecycle transition to its submitter.
// Hosts is the admission placement (worker hosts, in binding order).
type JobUpdate struct {
	JobID  string   `json:"job_id"`
	Status string   `json:"status"`
	Hosts  []string `json:"hosts,omitempty"`
	Reason string   `json:"reason,omitempty"`
}

// Error codes distinguishing recoverable submission rejections from fatal
// protocol errors (an Error without a code remains fatal to the session).
const (
	ErrCodeThrottled = "throttled"  // per-tenant submission rate exceeded; retry later
	ErrCodeQueueFull = "queue_full" // pending queue at capacity
	ErrCodeBadJob    = "bad_job"    // spec invalid or uncompilable; do not retry
)

// Error carries a protocol error to the peer. Code, when set, classifies a
// recoverable rejection (see ErrCode*); without one the error is fatal.
type Error struct {
	Msg  string `json:"msg"`
	Code string `json:"code,omitempty"`
}

// Message is the transport envelope: Type selects which payload is set.
type Message struct {
	Type       string      `json:"type"`
	Hello      *Hello      `json:"hello,omitempty"`
	Register   *Register   `json:"register,omitempty"`
	Unregister *Unregister `json:"unregister,omitempty"`
	FlowEvent  *FlowEvent  `json:"flow_event,omitempty"`
	FlowBatch  *FlowBatch  `json:"flow_batch,omitempty"`
	Allocation *Allocation `json:"allocation,omitempty"`
	Heartbeat  *Heartbeat  `json:"heartbeat,omitempty"`
	SubmitJob  *SubmitJob  `json:"submit_job,omitempty"`
	JobUpdate  *JobUpdate  `json:"job_update,omitempty"`
	Error      *Error      `json:"error,omitempty"`
}

// Validate checks the envelope carries the payload its type claims.
func (m Message) Validate() error {
	switch m.Type {
	case TypeHello:
		if m.Hello == nil {
			return fmt.Errorf("wire: hello message without payload")
		}
	case TypeRegister:
		if m.Register == nil {
			return fmt.Errorf("wire: register message without payload")
		}
	case TypeUnregister:
		if m.Unregister == nil {
			return fmt.Errorf("wire: unregister message without payload")
		}
	case TypeFlowEvent:
		if m.FlowEvent == nil {
			return fmt.Errorf("wire: flow_event message without payload")
		}
		if err := m.FlowEvent.validate(); err != nil {
			return err
		}
	case TypeFlowBatch:
		if m.FlowBatch == nil {
			return fmt.Errorf("wire: flow_batch message without payload")
		}
		if len(m.FlowBatch.Events) == 0 {
			return fmt.Errorf("wire: empty flow_batch")
		}
		for i := range m.FlowBatch.Events {
			if err := m.FlowBatch.Events[i].validate(); err != nil {
				return err
			}
		}
	case TypeAllocation:
		if m.Allocation == nil {
			return fmt.Errorf("wire: allocation message without payload")
		}
	case TypeHeartbeat:
		// Payload optional: absent on plain keepalives, a Heartbeat with a
		// nonce on coordinator-initiated RTT pings and their echoes.
	case TypeSubmitJob:
		if m.SubmitJob == nil {
			return fmt.Errorf("wire: submit_job message without payload")
		}
		if err := m.SubmitJob.Job.Validate(); err != nil {
			return err
		}
	case TypeJobUpdate:
		if m.JobUpdate == nil {
			return fmt.Errorf("wire: job_update message without payload")
		}
		switch s := m.JobUpdate.Status; s {
		case JobQueued, JobAdmitted, JobRejected, JobDeparted:
		default:
			return fmt.Errorf("wire: unknown job status %q", s)
		}
	case TypeError:
		if m.Error == nil {
			return fmt.Errorf("wire: error message without payload")
		}
	default:
		return fmt.Errorf("wire: unknown message type %q", m.Type)
	}
	return nil
}

// Codec frames messages over a byte stream. Send is safe for concurrent
// use; Recv must be called from a single reader goroutine. Send frames a
// hello in the handshake framing and every other message in binary; Refuse
// sends the handshake's refusal. Recv accepts a binary frame of any kind and
// a JSON-framed frame only if it is part of the handshake.
type Codec struct {
	r  *bufio.Reader
	w  io.Writer
	mu sync.Mutex // serializes Send and Refuse, and guards sendBuf
	rx uint64     // bytes consumed by Recv, including partial frames

	// sendBuf is the reusable frame assembly buffer (header + body in one
	// Write call), guarded by mu.
	sendBuf []byte

	// names interns strings decoded off binary frames: group and flow IDs
	// repeat on every hot-path event, so steady-state decodes reuse one
	// canonical copy instead of allocating per message. Reader-goroutine
	// only, like the rest of the Recv state.
	names map[string]string

	// Partial-frame state. A Recv interrupted mid-frame (read deadline,
	// short read) parks its progress here and the next call resumes where
	// it stopped: TCP delivers the remaining bytes in order, so a timeout
	// never desynchronizes the stream. The header length is discovered from
	// the first byte (binary magic = 8 bytes, JSON length prefix = 4).
	hdr    [binaryHeaderSize]byte
	hdrN   int
	inBody bool
	body   bytes.Buffer     // reused across frames; valid while inBody
	lr     io.LimitedReader // reused body-read cursor (io.CopyN allocates one per call)
	want   uint32           // body length, valid while inBody
	kind   byte             // binary frame kind, valid while inBody on a binary frame
	flags  uint16           // binary frame flags, likewise
	isBin  bool             // current partial frame uses the binary framing
}

// NewCodec wraps a stream.
func NewCodec(rw io.ReadWriter) *Codec {
	return &Codec{r: bufio.NewReader(rw), w: rw}
}

// EnableBinary does nothing: every frame after the hello is binary from the
// start, so there is no send mode left to switch.
//
// Deprecated: kept only because the control-plane benchmark module still
// calls it; delete it with those calls.
func (c *Codec) EnableBinary() {}

// Send frames and writes one message. Header and body are assembled into
// one buffer and handed to the stream as a single Write, so a message costs
// one syscall on a raw conn.
func (c *Codec) Send(m Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var b []byte
	var err error
	if m.Type == TypeHello {
		b, err = appendHandshakeFrame(c.sendBuf[:0], m)
	} else {
		b, err = appendBinaryFrame(c.sendBuf[:0], &m)
	}
	if err != nil {
		return err
	}
	return c.writeLocked(b)
}

// writeLocked hands one assembled frame to the stream, keeping the buffer's
// grown capacity for the next one. Caller holds c.mu.
func (c *Codec) writeLocked(b []byte) error {
	c.sendBuf = b[:0]
	if _, err := c.w.Write(b); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// Received reports the total bytes Recv has consumed, counting partial
// frames. Like Recv itself, it must only be called from the reader
// goroutine.
func (c *Codec) Received() uint64 { return c.rx }

// headerLen is the bytes of header the current frame needs: unknown frames
// read one byte, then the magic byte selects the framing.
func (c *Codec) headerLen() int {
	if c.hdrN == 0 {
		return 1
	}
	if c.hdr[0] == binaryMagic {
		return binaryHeaderSize
	}
	return 4
}

// Recv reads and validates one message. A Recv that fails on a retryable
// read error — a net.Conn deadline timeout in particular — may be called
// again: decoding resumes from the exact byte where the previous call
// stopped, even mid-frame. Each frame declares its own framing; a
// JSON-framed frame that is not part of the handshake is refused.
func (c *Codec) Recv() (Message, error) {
	if !c.inBody {
		for c.hdrN < c.headerLen() {
			n, err := c.r.Read(c.hdr[c.hdrN:c.headerLen()])
			c.hdrN += n
			c.rx += uint64(n)
			if err != nil {
				if err == io.EOF && c.hdrN > 0 {
					err = io.ErrUnexpectedEOF
				}
				return Message{}, err
			}
		}
		var n uint32
		if c.hdr[0] == binaryMagic {
			c.isBin = true
			c.kind = c.hdr[1]
			c.flags = binary.BigEndian.Uint16(c.hdr[2:4])
			n = binary.BigEndian.Uint32(c.hdr[4:8])
		} else {
			c.isBin = false
			n = binary.BigEndian.Uint32(c.hdr[:4])
		}
		if n > MaxFrame {
			return Message{}, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
		}
		// Grow the body as bytes actually arrive rather than trusting the
		// length prefix: a peer claiming a near-MaxFrame body and then
		// stalling (or hanging up) must not cost a 16 MiB allocation per
		// connection.
		c.want = n
		c.body.Reset()
		c.body.Grow(int(min(n, 64<<10)))
		c.inBody = true
	}
	c.lr.R, c.lr.N = c.r, int64(c.want)-int64(c.body.Len())
	bn, err := c.body.ReadFrom(&c.lr)
	c.rx += uint64(bn)
	if err == nil && c.body.Len() < int(c.want) {
		// ReadFrom reports a source EOF as a clean stop; here the stream
		// ended inside a frame body — a truncation, exactly like an EOF
		// mid-header, never a clean end of stream.
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return Message{}, fmt.Errorf("wire: read body: %w", err)
	}
	c.hdrN, c.inBody, c.want = 0, false, 0
	var m Message
	if c.isBin {
		if err := c.decodeBinary(c.kind, c.flags, c.body.Bytes(), &m); err != nil {
			return Message{}, err
		}
	} else if err := decodeHandshake(c.body.Bytes(), &m); err != nil {
		return Message{}, err
	}
	// One oversized frame must not pin its high-water buffer forever.
	if c.body.Cap() > 1<<20 {
		c.body = bytes.Buffer{}
	}
	if err := m.Validate(); err != nil {
		return Message{}, err
	}
	return m, nil
}
