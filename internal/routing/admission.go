package routing

import (
	"context"
	"errors"
	"fmt"
	"math"

	"abw/internal/cancel"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/graph"
	"abw/internal/lp"
	"abw/internal/obs"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// Request is one flow asking to join the network.
type Request struct {
	Src    topology.NodeID
	Dst    topology.NodeID
	Demand float64 // Mbps
}

// Decision records the outcome of one admission attempt.
type Decision struct {
	Request Request
	// Path is the route the metric chose (nil when routing failed).
	Path topology.Path
	// Available is the exact available bandwidth of Path given the
	// previously admitted flows (the paper's Fig. 3 y-axis).
	Available float64
	// Admitted is true when Available covers the demand.
	Admitted bool
	// Reason explains a rejection.
	Reason string
}

// AdmissionOptions configure a sequential admission run.
type AdmissionOptions struct {
	// StopAtFirstFailure mirrors the paper's Sec. 5.2 setup: the run
	// ends when the first flow cannot be satisfied.
	StopAtFirstFailure bool
	// Core carries through to the availability LP.
	Core core.Options
}

// SequentialAdmissionContext reproduces the paper's Sec. 5.2
// experiment: flows join one by one, each through AdmitStepContext over
// one session: it is routed with the given metric using the idleness
// induced by the already-admitted background, its path's exact
// available bandwidth is computed with the Eq. 6 model over the same
// background, and it is admitted iff the demand fits. ctx is checked
// between admission steps and forwarded into each step's enumeration
// and LP solves, so a cancelled run stops promptly with an error
// satisfying errors.Is(err, cancel.ErrCanceled) alongside the
// decisions completed so far. Admission state is only extended by fully
// completed steps — cancellation never commits a half-evaluated flow.
func SequentialAdmissionContext(
	ctx context.Context,
	net *topology.Network,
	m conflict.Model,
	metric Metric,
	requests []Request,
	opts AdmissionOptions,
) ([]Decision, error) {
	// A configured cache makes the session keep set families,
	// warm-started availability LPs and solved backgrounds across the
	// admission steps. Answers are the same either way (core's session
	// property tests pin warm == cold).
	sess := core.NewSession(m, opts.Core)
	var admitted []core.Flow
	decisions := make([]Decision, 0, len(requests))
	for _, req := range requests {
		if ctx.Err() != nil {
			return decisions, cancel.Cause(ctx)
		}
		dec, _, err := AdmitStepContext(ctx, net, m, metric, req, admitted, sess)
		if err != nil {
			return decisions, err
		}
		decisions = append(decisions, dec)
		if dec.Admitted {
			admitted = append(admitted, core.Flow{Path: dec.Path, Demand: req.Demand})
		} else if opts.StopAtFirstFailure {
			break
		}
	}
	return decisions, nil
}

// AdmitStepContext is one step of the Sec. 5.2 admission: it solves
// the admitted flows' background through sess, routes req with the
// metric over the background's carrier-sensed idle ratios, and answers
// Eq. 6 for the chosen path over that same background; req is admitted
// iff the answer covers its demand. It also returns the solved
// background the step routed on, so that a caller can read its idle
// ratios or schedule without solving it again (nil with an error). An
// unschedulable background is an error; an unroutable request is a
// rejected Decision with reason "no route" and a nil Path.
func AdmitStepContext(
	ctx context.Context,
	net *topology.Network,
	m conflict.Model,
	metric Metric,
	req Request,
	admitted []core.Flow,
	sess *core.Session,
) (Decision, *core.Background, error) {
	dec := Decision{Request: req}
	if req.Demand <= 0 {
		return dec, nil, fmt.Errorf("routing: request demand must be positive, got %g", req.Demand)
	}
	tm := obs.SpanFrom(ctx).StartStage(obs.StageAdmit)
	defer tm.End()
	bg, err := schedulable(sess.Background(ctx, admitted))
	if err != nil {
		return dec, nil, err
	}
	rt := obs.SpanFrom(ctx).StartStage(obs.StageRoute)
	path, err := FindPath(net, m, metric, bg.IdleRatios(net), req.Src, req.Dst)
	rt.End()
	if errors.Is(err, graph.ErrNoPath) {
		dec.Reason = "no route"
		return dec, bg, nil
	}
	if err != nil {
		return dec, nil, err
	}
	dec.Path = path

	res, err := bg.AvailableBandwidthContext(ctx, path)
	if err != nil {
		return dec, nil, fmt.Errorf("routing: availability of %v: %w", path, err)
	}
	if res.Status != lp.Optimal {
		dec.Reason = fmt.Sprintf("availability LP %v", res.Status)
		return dec, bg, nil
	}
	dec.Available = math.Max(0, res.Bandwidth) // LP round-off can dip below zero
	if res.Bandwidth+1e-9 >= req.Demand {
		dec.Admitted = true
	} else {
		dec.Reason = fmt.Sprintf("available %.3f Mbps < demand %.3f Mbps", res.Bandwidth, req.Demand)
	}
	return dec, bg, nil
}

// BackgroundIdlenessContext derives per-node carrier-sensed idle ratios
// from the admitted flows: the minimal-airtime schedule delivering the
// admitted demands is computed (what an efficient network converges to)
// and each node senses it. With no background, every node is fully
// idle. It is the IdleRatios of core.SolveBackgroundContext's value;
// callers that also need the schedule or Eq. 6 should read one solved
// core.Background instead. An unschedulable background is an error.
// The feasibility enumeration and LP poll ctx and stop promptly on
// cancellation.
func BackgroundIdlenessContext(ctx context.Context, net *topology.Network, m conflict.Model, admitted []core.Flow, coreOpts core.Options) ([]float64, error) {
	bg, err := schedulable(core.SolveBackgroundContext(ctx, m, admitted, coreOpts))
	if err != nil {
		return nil, err
	}
	return bg.IdleRatios(net), nil
}

// BackgroundScheduleContext exposes the minimal-airtime schedule used
// for idleness. Cancellation and an unschedulable background behave as
// in BackgroundIdlenessContext. It is kept for perfbench's replay,
// which times the background on its own, until that replay is retired
// (ROADMAP item 1): every other caller reads a solved core.Background.
func BackgroundScheduleContext(ctx context.Context, m conflict.Model, admitted []core.Flow, coreOpts core.Options) (schedule.Schedule, error) {
	bg, err := schedulable(core.SolveBackgroundContext(ctx, m, admitted, coreOpts))
	if err != nil {
		return schedule.Schedule{}, err
	}
	return bg.Schedule, nil
}

// schedulable passes a solved background through, making an
// unschedulable one an error.
func schedulable(bg *core.Background, err error) (*core.Background, error) {
	if err != nil {
		return nil, fmt.Errorf("routing: background schedule: %w", err)
	}
	if !bg.Feasible {
		return nil, fmt.Errorf("routing: background not schedulable")
	}
	return bg, nil
}
