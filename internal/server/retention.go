package server

// retention.go bounds what finished jobs keep for the life of the server.
// Sessions are long-lived and clients rarely delete them, so without a
// budget every job's result JSON and event history would stay in memory
// forever. A finished job's retained size is its result plus its event
// history; once the total passes resultBudget the oldest finished jobs
// give theirs up — except each session's latest finished job, the one its
// client is polling. An evicted job keeps its small record (state,
// times, stats); a GET says result_evicted, its event stream answers 410,
// and resubmitting it is served from the engine's cache tiers.

import "container/list"

// resultBudget caps the bytes of finished jobs' results and event
// histories the server retains beyond each session's latest finished job.
const resultBudget = 4 << 20

// retention is the account of finished jobs that still hold their result
// and event stream, oldest finished first. It is guarded by Server.mu, the
// lock of the session table, so that a job finishing and its session being
// deleted are ordered.
type retention struct {
	order  list.List       // of retainedJob
	bytes  int             // sum of the listed jobs' sizes
	latest map[string]*job // each live session's latest finished job
}

type retainedJob struct {
	j    *job
	size int
}

// add accounts a finished job of a live session and returns the jobs that
// must give up their result and stream to bring the total back within
// resultBudget: the oldest first, never a session's latest finished job.
func (r *retention) add(j *job, size int) (victims []*job) {
	if r.latest == nil {
		r.latest = make(map[string]*job)
	}
	r.latest[j.sid] = j
	r.order.PushBack(retainedJob{j, size})
	r.bytes += size
	for el := r.order.Front(); el != nil && r.bytes > resultBudget; {
		next := el.Next()
		if v := el.Value.(retainedJob); r.latest[v.j.sid] != v.j {
			r.order.Remove(el)
			r.bytes -= v.size
			victims = append(victims, v.j)
		}
		el = next
	}
	return victims
}

// forget stops accounting a deleted session's jobs.
func (r *retention) forget(sid string) {
	delete(r.latest, sid)
	for el := r.order.Front(); el != nil; {
		next := el.Next()
		if v := el.Value.(retainedJob); v.j.sid == sid {
			r.order.Remove(el)
			r.bytes -= v.size
		}
		el = next
	}
}
