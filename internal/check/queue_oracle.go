package check

import (
	"sort"

	"echelonflow/internal/queue"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// Queue-oracle admission parameters. Two concurrent jobs with a 75% budget
// keeps contention real on the generator's 1-2 job scenarios while leaving
// both the MaxJobs gate and the bandwidth gate reachable.
const (
	oracleMaxJobs  = 2
	oracleMaxShare = 0.75
)

// wireJob lowers a scenario job to the wire submission form the queue
// admits: explicit worker hosts become a count (the placer re-binds them).
func wireJob(j JobSpec) wire.JobSpec {
	return wire.JobSpec{
		ID: j.Name, Paradigm: j.Paradigm, Workers: len(j.Workers),
		Layers: j.Model.Layers, Params: j.Model.Params, Acts: j.Model.Acts,
		Fwd: j.Model.Fwd, Bwd: j.Model.Bwd,
		AggTime: j.AggTime, Buckets: j.Buckets, Micro: j.Micro,
		UpdateTime: j.UpdateTime, Prefetch: j.Prefetch,
		Iterations: j.Iterations, Weight: j.Weight,
	}
}

// oracleQueue replays the scenario's jobs as an arrival-timed submission
// trace through the internal/queue state machine — each admitted job
// occupies the queue for its estimated runtime — and checks the admission
// invariants:
//
//   - no job is admitted before it arrived;
//   - FIFO admission never overtakes (sequence numbers admit in order);
//   - the MaxJobs and bandwidth-budget gates are never overshot (the budget
//     tolerates a single admitted job — the anti-starvation exception);
//   - jobs are conserved: pending + running + departed + rejected always
//     equals submissions, and demand returns to exactly zero;
//   - the queue drains once the trace ends.
func oracleQueue(c *compiled) []Violation {
	jobs := c.sc.Jobs
	if len(jobs) == 0 {
		return nil
	}
	var out []Violation
	q := queue.New(queue.Options{MaxJobs: oracleMaxJobs, MaxShare: oracleMaxShare})
	net := c.newNet()
	budget := unit.Rate(oracleMaxShare) * queue.NewView(net).TotalCapacity()
	view := func() *queue.View {
		v := queue.NewView(net)
		for _, a := range q.AdmittedList() {
			for _, h := range a.Hosts {
				v.Workers[h]++
			}
		}
		return v
	}

	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})

	type departure struct {
		at unit.Time
		id string
	}
	var deps []departure
	arrival := make(map[string]unit.Time)
	submitted, departed, rejected := 0, 0, 0
	lastSeq := -1
	now := unit.Time(0)

	admitAll := func() {
		for {
			a, err := q.Next(view(), now)
			if err != nil {
				rejected++ // unplaceable head dropped; keep serving behind it
				continue
			}
			if a == nil {
				return
			}
			id := a.Job.Spec.ID
			if a.AdmittedAt < arrival[id]-unit.Time(unit.Eps) {
				out = append(out, vf(OracleQueue, "job %s admitted at %v before its arrival %v", id, a.AdmittedAt, arrival[id]))
			}
			if a.Job.Seq <= lastSeq {
				out = append(out, vf(OracleQueue, "job %s (seq %d) admitted after seq %d: FIFO overtake", id, a.Job.Seq, lastSeq))
			}
			lastSeq = a.Job.Seq
			if q.Running() > oracleMaxJobs {
				out = append(out, vf(OracleQueue, "%d jobs running, MaxJobs is %d", q.Running(), oracleMaxJobs))
			}
			if q.Running() > 1 && q.Demand() > budget+unit.Rate(unit.Eps) {
				out = append(out, vf(OracleQueue, "admitted demand %v overshoots budget %v with %d jobs running", q.Demand(), budget, q.Running()))
			}
			deps = append(deps, departure{at: now + a.Job.Est*unit.Time(a.Job.Spec.Iterations), id: id})
		}
	}

	ai := 0
	for ai < len(order) || len(deps) > 0 {
		sort.SliceStable(deps, func(i, j int) bool { return deps[i].at < deps[j].at })
		// Departures win ties so a freed slot is visible to a simultaneous
		// arrival, matching the coordinator's depart-then-admit order.
		if len(deps) > 0 && (ai >= len(order) || deps[0].at <= jobs[order[ai]].Arrival) {
			d := deps[0]
			deps = deps[1:]
			if d.at > now {
				now = d.at
			}
			if !q.Depart(d.id) {
				out = append(out, vf(OracleQueue, "admitted job %s missing at departure", d.id))
			}
			departed++
		} else {
			j := jobs[order[ai]]
			ai++
			if j.Arrival > now {
				now = j.Arrival
			}
			if _, err := q.Submit("check", wireJob(j), nil, now); err != nil {
				rejected++
			} else {
				arrival[j.Name] = now
			}
			submitted++
		}
		admitAll()
		if got := q.Depth() + q.Running() + departed + rejected; got != submitted {
			out = append(out, vf(OracleQueue, "job conservation broken: %d pending + %d running + %d departed + %d rejected != %d submitted",
				q.Depth(), q.Running(), departed, rejected, submitted))
		}
		if q.Demand() < -unit.Rate(unit.Eps) {
			out = append(out, vf(OracleQueue, "negative admitted demand %v", q.Demand()))
		}
	}
	if q.Depth() != 0 || q.Running() != 0 {
		out = append(out, vf(OracleQueue, "queue failed to drain: %d pending, %d running", q.Depth(), q.Running()))
	}
	if q.Demand() != 0 {
		out = append(out, vf(OracleQueue, "residual demand %v after drain", q.Demand()))
	}
	return out
}
