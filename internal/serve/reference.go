package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rumor/internal/core"
	"rumor/internal/experiment"
)

// Reference is the byte-exact output a server must produce for a job:
// the full response body, the NDJSON stream frames in emission order,
// and the terminal frame. It is computed locally by the same code paths
// a live server runs, so an external checker (cmd/soak) can assert that
// bytes received through any number of gateways, retries, failovers, and
// backend restarts are identical to a single-process run — the property
// that makes retrying a deterministic job safe in the first place.
type Reference struct {
	ID    string   // canonical job ID
	Body  []byte   // full response body (POST /v1/run or /v1/sweep)
	Lines [][]byte // stream frames, emission order, terminal frame excluded
	Final []byte   // terminal stream frame
}

// computeCompleted simulates one normalized spec through the exact
// assembly runJob performs and returns its completed payload. Failures
// are deterministic too, so they are captured in the payload rather than
// returned: a spec that cannot build fails identically on every backend.
func computeCompleted(norm experiment.RunSpec) (string, *completedJob) {
	id := jobID(norm)
	j := newJob(id, norm)
	var resp []byte
	var runErr error
	g, src, err := norm.Build()
	if err != nil {
		runErr = err
	} else {
		results, err := norm.RunOn(g, src, func(t int, r core.Result) {
			j.appendLine(mustMarshalLine(toTrialJSON(norm, t, r)))
		})
		if err != nil {
			runErr = err
		} else {
			resp = mustMarshalLine(buildRunResponse(norm, g, src, results))
		}
	}
	final := j.seal(resp, runErr)
	c := &completedJob{resp: resp, lines: j.snapshotLines(), final: final, trials: j.trials}
	if runErr != nil {
		c.errMsg = runErr.Error()
	}
	return id, c
}

// ComputeReference runs spec locally and returns the exact bytes a
// server serves for it. The spec is normalized first, so callers can
// pass the same request they POST. A spec that fails to normalize or to
// simulate returns an error rather than a Reference.
func ComputeReference(spec experiment.RunSpec) (Reference, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return Reference{}, err
	}
	id, c := computeCompleted(norm)
	if c.failed() {
		return Reference{}, fmt.Errorf("serve: reference run failed: %s", c.errMsg)
	}
	return Reference{ID: id, Body: c.resp, Lines: c.lines, Final: c.final}, nil
}

// ComputeSweepReference assembles the exact response and stream of a
// sweep over the given expanded points, mirroring runSweep frame for
// frame: one header frame per point ahead of that point's trial frames,
// entries in plan order, and the sweep terminal frame.
func ComputeSweepReference(points []experiment.SweepPoint) (Reference, error) {
	if len(points) == 0 {
		return Reference{}, fmt.Errorf("serve: sweep reference needs at least one point")
	}
	sid := SweepJobID(points)
	j := &Job{
		ID:      sid,
		points:  len(points),
		state:   stateQueued,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	resp := sweepResponse{Sweep: sid, Points: make([]sweepPointJSON, 0, len(points))}
	for i, pt := range points {
		id, c := computeCompleted(pt.Spec)
		j.appendLine(mustMarshalLine(sweepHeaderJSON{
			Point: i, Graph: pt.Spec.Graph, Protocol: pt.Spec.Protocol, Seed: pt.Spec.Seed,
			Job: id, Frames: len(c.lines), Error: c.errMsg,
		}))
		for _, line := range c.lines {
			j.appendLine(line)
		}
		entry := sweepPointJSON{
			Graph: pt.Spec.Graph, Protocol: pt.Spec.Protocol, Seed: pt.Spec.Seed, Job: id,
		}
		if c.failed() {
			entry.Error = c.errMsg
		} else {
			entry.Result = json.RawMessage(bytes.TrimSuffix(c.resp, []byte("\n")))
		}
		resp.Points = append(resp.Points, entry)
	}
	final := j.seal(mustMarshalLine(resp), nil)
	body, _ := j.result()
	return Reference{ID: sid, Body: body, Lines: j.snapshotLines(), Final: final}, nil
}
