package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"rumor/internal/core"
	"rumor/internal/experiment"
	"rumor/internal/graph"
	"rumor/internal/stats"
)

// jobState is the lifecycle of an in-flight job.
type jobState string

const (
	stateQueued  jobState = "queued"
	stateRunning jobState = "running"
	stateDone    jobState = "done"
	stateFailed  jobState = "failed"
)

// Job is one in-flight unit of work — a simulation, or a sweep assembly
// — plus the NDJSON frames appended as results arrive. Streamers read
// lines under mu and wait on changed, which is closed and replaced on
// every append — a broadcast that composes with context cancellation.
//
// Simulation jobs carry a Spec and run on the worker pool. Sweep jobs
// (plan != nil) never enter the queue: an orchestrator goroutine waits on
// their point jobs and assembles frames in plan order (see planner.go).
type Job struct {
	ID     string
	Spec   experiment.RunSpec
	plan   *sweepPlan // non-nil for sweep jobs
	trials int        // expected trial frames (summed over points for sweeps)
	points int        // sweep points (0 for simulation jobs)

	mu      sync.Mutex
	state   jobState
	lines   [][]byte // one marshaled frame per emitted trial, trial order
	final   []byte   // terminal frame, set at completion
	resp    []byte   // full response body, set on success
	err     error    // set on failure
	changed chan struct{}
	done    chan struct{}
}

func newJob(id string, spec experiment.RunSpec) *Job {
	return &Job{
		ID:      id,
		Spec:    spec,
		trials:  spec.Trials,
		state:   stateQueued,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func newSweepJob(id string, plan *sweepPlan) *Job {
	j := &Job{
		ID:      id,
		plan:    plan,
		points:  len(plan.points),
		state:   stateQueued,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, pp := range plan.points {
		j.trials += pp.spec.Trials
	}
	return j
}

// setRunning transitions queued → running.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = stateRunning
	j.bump()
	j.mu.Unlock()
}

// appendLine publishes one trial frame to streamers.
func (j *Job) appendLine(line []byte) {
	j.mu.Lock()
	j.lines = append(j.lines, line)
	j.bump()
	j.mu.Unlock()
}

// seal finalizes the job — state, payload, terminal frame — and returns
// the terminal frame, without waking anyone: Server.finish publishes the
// payload to the store between seal and wake, so no response can overtake
// its own result's move into the cache. Sweep streams interleave one
// header frame per point with the trial frames, so their terminal frame
// reports both counts.
func (j *Job) seal(resp []byte, err error) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = stateFailed
		j.err = err
		j.final = mustMarshalLine(streamFinal{Done: true, Job: j.ID, Error: err.Error()})
	} else {
		j.state = stateDone
		j.resp = resp
		j.final = mustMarshalLine(streamFinal{Done: true, Job: j.ID, Points: j.points, Trials: len(j.lines) - j.points})
	}
	return j.final
}

// wake releases everyone waiting on a sealed job.
func (j *Job) wake() {
	j.mu.Lock()
	j.bump()
	close(j.done)
	j.mu.Unlock()
}

// bump wakes every waiter. Caller holds mu.
func (j *Job) bump() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// snapshot returns the frames at or past from, the current state, the
// terminal frame (nil until completion), and the channel that signals the
// next change.
func (j *Job) snapshot(from int) (lines [][]byte, state jobState, final []byte, changed chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.lines) {
		lines = j.lines[from:len(j.lines):len(j.lines)]
	}
	return lines, j.state, j.final, j.changed
}

// snapshotLines returns all frames; used once at completion.
func (j *Job) snapshotLines() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines
}

// result returns the outcome after done is closed.
func (j *Job) result() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resp, j.err
}

// completedJob is the payload the result LRU retains (and the disk tier
// persists) for a finished job: the exact bytes a fresh run produced, so
// cache and disk hits replay them verbatim.
type completedJob struct {
	resp   []byte   // nil for failures
	lines  [][]byte // stream frames, emission order
	final  []byte   // terminal stream frame
	trials int      // requested trial count, for status reporting
	points int      // sweep points (0 for simulation jobs)
	errMsg string   // non-empty for failures
}

func (c *completedJob) failed() bool { return c.errMsg != "" }

// summaryJSON is stats.Summary with wire-format field names.
type summaryJSON struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
	CI95   float64 `json:"ci95"`
}

func toSummaryJSON(s stats.Summary) *summaryJSON {
	return &summaryJSON{
		N: s.N, Mean: s.Mean, Std: s.Std, Min: s.Min, Max: s.Max,
		Median: s.Median, P10: s.P10, P90: s.P90, CI95: s.CI95,
	}
}

// trialJSON is one trial's result on the wire: a stream frame and an
// entry of RunResponse.Trials.
type trialJSON struct {
	Trial          int   `json:"trial"`
	Rounds         int   `json:"rounds"`
	Completed      bool  `json:"completed"`
	Messages       int64 `json:"messages"`
	AllAgentsRound int   `json:"allAgentsRound"`
	History        []int `json:"history,omitempty"`
}

func toTrialJSON(spec experiment.RunSpec, t int, r core.Result) trialJSON {
	tj := trialJSON{
		Trial:          t,
		Rounds:         r.Rounds,
		Completed:      r.Completed,
		Messages:       r.Messages,
		AllAgentsRound: r.AllAgentsRound,
	}
	if spec.History {
		tj.History = r.History
	}
	return tj
}

// graphJSON describes the materialized graph of a run.
type graphJSON struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Bipartite bool   `json:"bipartite"`
	Source    int    `json:"source"`
}

// runResponse is the full result body of POST /v1/run (and the "result"
// of a done GET /v1/jobs/{id}). It is marshaled exactly once per
// simulation; cached and deduplicated responses replay the same bytes.
type runResponse struct {
	Spec      experiment.RunSpec `json:"spec"`
	Graph     graphJSON          `json:"graph"`
	Completed int                `json:"completed"`
	Rounds    *summaryJSON       `json:"rounds,omitempty"`
	Messages  *summaryJSON       `json:"messages,omitempty"`
	Trials    []trialJSON        `json:"trials"`
}

// buildRunResponse assembles the deterministic response body: summaries
// over completed trials (matching cmd/rumor's reporting convention) plus
// the per-trial results.
func buildRunResponse(spec experiment.RunSpec, g *graph.Graph, src graph.Vertex, results []core.Result) runResponse {
	resp := runResponse{
		Spec: spec,
		Graph: graphJSON{
			Name:      g.Name(),
			N:         g.N(),
			M:         g.M(),
			Bipartite: g.Bipartite(),
			Source:    int(src),
		},
		Trials: make([]trialJSON, 0, len(results)),
	}
	var rounds, msgs stats.Running
	for t, r := range results {
		resp.Trials = append(resp.Trials, toTrialJSON(spec, t, r))
		if r.Completed {
			resp.Completed++
			rounds.Add(float64(r.Rounds))
			msgs.Add(float64(r.Messages))
		}
	}
	if rounds.N() > 0 {
		resp.Rounds = toSummaryJSON(rounds.Summary())
		resp.Messages = toSummaryJSON(msgs.Summary())
	}
	return resp
}

// streamFinal is the terminal NDJSON frame of a job stream. Points is
// set only for sweeps, whose streams carry one header frame per point
// ahead of that point's trial frames.
type streamFinal struct {
	Done   bool   `json:"done"`
	Job    string `json:"job"`
	Points int    `json:"points,omitempty"`
	Trials int    `json:"trials,omitempty"`
	Error  string `json:"error,omitempty"`
}

// mustMarshalLine marshals a frame and appends the NDJSON newline.
// Marshaling the wire structs cannot fail; a failure is a programming
// error worth crashing on.
func mustMarshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal frame: %v", err))
	}
	return append(b, '\n')
}
