package routing

import (
	"context"
	"errors"
	"fmt"
	"math"

	"abw/internal/cancel"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/estimate"
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
// experiment: flows join one by one; each is routed with the given
// metric using the idleness induced by the already-admitted background,
// its path's exact available bandwidth is computed with the Eq. 6
// model, and it is admitted iff the demand fits. ctx is checked between
// admission steps and forwarded into each step's
// enumeration and LP solves, so a cancelled run stops promptly with an
// error satisfying errors.Is(err, cancel.ErrCanceled) alongside the
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
		dec, err := admitOne(ctx, net, m, metric, req, admitted, sess)
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

func admitOne(
	ctx context.Context,
	net *topology.Network,
	m conflict.Model,
	metric Metric,
	req Request,
	admitted []core.Flow,
	sess *core.Session,
) (Decision, error) {
	dec := Decision{Request: req}
	if req.Demand <= 0 {
		return dec, fmt.Errorf("routing: request demand must be positive, got %g", req.Demand)
	}
	tm := obs.SpanFrom(ctx).StartStage(obs.StageAdmit)
	defer tm.End()
	// The background is solved once: its schedule gives routing's idle
	// ratios, and Eq. 6 for the chosen path is solved over it.
	bg, err := schedulable(sess.Background(ctx, admitted))
	if err != nil {
		return dec, err
	}
	rt := obs.SpanFrom(ctx).StartStage(obs.StageRoute)
	path, err := FindPath(net, m, metric, bg.IdleRatios(net), req.Src, req.Dst)
	rt.End()
	if errors.Is(err, graph.ErrNoPath) {
		dec.Reason = "no route"
		return dec, nil
	}
	if err != nil {
		return dec, err
	}
	dec.Path = path

	res, err := bg.AvailableBandwidthContext(ctx, path)
	if err != nil {
		return dec, fmt.Errorf("routing: availability of %v: %w", path, err)
	}
	if res.Status != lp.Optimal {
		dec.Reason = fmt.Sprintf("availability LP %v", res.Status)
		return dec, nil
	}
	dec.Available = math.Max(0, res.Bandwidth) // LP round-off can dip below zero
	if res.Bandwidth+1e-9 >= req.Demand {
		dec.Admitted = true
	} else {
		dec.Reason = fmt.Sprintf("available %.3f Mbps < demand %.3f Mbps", res.Bandwidth, req.Demand)
	}
	return dec, nil
}

// BackgroundIdlenessContext derives per-node carrier-sensed idle ratios
// from the admitted flows: the minimal-airtime schedule delivering the
// admitted demands is computed (what an efficient network converges to)
// and each node senses it. With no background, every node is fully
// idle. It is estimate.NodeIdleRatios over BackgroundScheduleContext;
// callers that also need the schedule should solve it once and derive
// both. The feasibility enumeration and LP poll ctx and stop promptly
// on cancellation.
func BackgroundIdlenessContext(ctx context.Context, net *topology.Network, m conflict.Model, admitted []core.Flow, coreOpts core.Options) ([]float64, error) {
	sched, err := BackgroundScheduleContext(ctx, m, admitted, coreOpts)
	if err != nil {
		return nil, err
	}
	return estimate.NodeIdleRatios(net, sched), nil
}

// BackgroundScheduleContext exposes the minimal-airtime schedule used
// for idleness, for callers that need the schedule itself (e.g. the
// Fig. 4 estimation experiment and the simulators). Cancellation
// behaves as in BackgroundIdlenessContext.
func BackgroundScheduleContext(ctx context.Context, m conflict.Model, admitted []core.Flow, coreOpts core.Options) (schedule.Schedule, error) {
	bg, err := SolveBackgroundContext(ctx, m, admitted, coreOpts)
	if err != nil {
		return schedule.Schedule{}, err
	}
	return bg.Schedule, nil
}

// SolveBackgroundContext solves the admitted flows' background once
// (core.SolveBackgroundContext), for callers that read both its
// schedule and Eq. 6 over it. An unschedulable background is an error
// here, as it is for BackgroundScheduleContext.
func SolveBackgroundContext(ctx context.Context, m conflict.Model, admitted []core.Flow, coreOpts core.Options) (*core.Background, error) {
	return schedulable(core.SolveBackgroundContext(ctx, m, admitted, coreOpts))
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
