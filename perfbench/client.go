package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"abw/internal/netjson"
	"abw/internal/obs"
	"abw/internal/server"
)

// newServer configures a server the way abwd does by default: automatic
// enumeration workers, a metrics registry (-metrics defaults to true)
// and a request logger, here writing to io.Discard so no terminal paces
// the run. withObs=false switches metrics and logger off (the traced
// run's second pass). withCache is abwd -cache.
func newServer(withCache, withObs bool) *server.Server {
	s := server.New()
	s.SetWorkers(0)
	if withObs {
		s.SetLogger(obs.NewLogger(io.Discard, "info"))
		s.SetMetrics(obs.NewRegistry())
	}
	if withCache {
		s.SetCacheBytes(0)
	}
	return s
}

// answer is the part of a response the benchmark verifies.
type answer struct {
	status int
	// ok is a query's feasibility or an admission's verdict.
	ok bool
	// admit is a query's wouldAdmit.
	admit bool
	// bw is a query's bandwidthMbps or an admission's availableMbps.
	bw    float64
	nodes []int
	// id is the admitted or deleted flow's id.
	id int
	// size is the response body's length; equal ignores it.
	size int
}

func (a answer) equal(b answer) bool {
	if a.status != b.status || a.ok != b.ok || a.admit != b.admit || a.id != b.id ||
		math.Float64bits(a.bw) != math.Float64bits(b.bw) || len(a.nodes) != len(b.nodes) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			return false
		}
	}
	return true
}

func (a answer) String() string {
	return fmt.Sprintf("status=%d ok=%v admit=%v bw=%v nodes=%v id=%d", a.status, a.ok, a.admit, a.bw, a.nodes, a.id)
}

// expectedStatus is the HTTP status a successful operation answers.
func expectedStatus(o op, a answer) int {
	if o.kind == opAdmit && a.ok {
		return http.StatusCreated
	}
	return http.StatusOK
}

// parseAnswer decodes a response body for the operation kind.
func parseAnswer(kind opKind, status int, body []byte) (answer, error) {
	a := answer{status: status}
	switch kind {
	case opQuery:
		var r struct {
			Feasible  bool    `json:"feasible"`
			Bandwidth float64 `json:"bandwidthMbps"`
			Admit     *bool   `json:"wouldAdmit"`
			PathNodes []int   `json:"pathNodes"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return a, fmt.Errorf("decoding query answer %q: %w", body, err)
		}
		if r.Admit == nil {
			return a, fmt.Errorf("query answer without wouldAdmit: %s", body)
		}
		a.ok, a.bw, a.admit, a.nodes = r.Feasible, r.Bandwidth, *r.Admit, r.PathNodes
	case opAdmit:
		var r struct {
			Admitted  bool    `json:"admitted"`
			Available float64 `json:"availableMbps"`
			Flow      *struct {
				ID        int   `json:"id"`
				PathNodes []int `json:"pathNodes"`
			} `json:"flow"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return a, fmt.Errorf("decoding admission answer %q: %w", body, err)
		}
		a.ok, a.bw = r.Admitted, r.Available
		if r.Flow != nil {
			a.id, a.nodes = r.Flow.ID, r.Flow.PathNodes
		}
	case opDelete:
		var r struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return a, fmt.Errorf("decoding deletion answer %q: %w", body, err)
		}
		a.id = r.ID
	}
	return a, nil
}

// request is an operation encoded the way abwd receives it.
type request struct {
	method, target string
	body           []byte
}

func encode(o op) request {
	switch o.kind {
	case opDelete:
		return request{method: http.MethodDelete, target: "/v1/flows/" + strconv.Itoa(o.id)}
	case opAdmit:
		return request{method: http.MethodPost, target: "/v1/flows", body: flowBody(o)}
	default:
		return request{method: http.MethodPost, target: "/v1/query", body: flowBody(o)}
	}
}

func flowBody(o op) []byte {
	b, _ := json.Marshal(struct {
		Src    int     `json:"src"`
		Dst    int     `json:"dst"`
		Demand float64 `json:"demandMbps"`
	}{o.src, o.dst, o.demand}) // a struct of ints and a float always encodes
	return b
}

// serve answers one request in-process and times the handler alone.
func serve(h http.Handler, r request) (code int, body []byte, start time.Time, d time.Duration) {
	var in io.Reader
	if r.body != nil {
		in = bytes.NewReader(r.body)
	}
	req := httptest.NewRequest(r.method, r.target, in)
	rec := httptest.NewRecorder()
	start = time.Now()
	h.ServeHTTP(rec, req)
	d = time.Since(start)
	return rec.Code, rec.Body.Bytes(), start, d
}

// flow is an admitted flow as the client knows it.
type flow struct {
	id     int
	nodes  []int
	demand float64
}

// httpSetup installs the deployment and submits its 8 requests, which
// become the background when admitted. It returns the admitted flows.
func httpSetup(h http.Handler, d *deployment) ([]flow, error) {
	body, err := json.Marshal(struct {
		Nodes []netjson.NodeSpec `json:"nodes"`
	}{d.nodes})
	if err != nil {
		return nil, fmt.Errorf("encoding the network: %w", err)
	}
	if code, resp, _, _ := serve(h, request{http.MethodPut, "/v1/network", body}); code != http.StatusOK {
		return nil, fmt.Errorf("installing the network: %d %s", code, resp)
	}
	var flows []flow
	for _, r := range d.reqs {
		o := op{kind: opAdmit, src: int(r.Src), dst: int(r.Dst), demand: r.Demand}
		code, resp, _, _ := serve(h, encode(o))
		a, err := parseAnswer(opAdmit, code, resp)
		if err != nil {
			return nil, err
		}
		if code != expectedStatus(o, a) {
			return nil, fmt.Errorf("setup admission %d->%d: %d %s", o.src, o.dst, code, resp)
		}
		if a.ok {
			flows = append(flows, flow{id: a.id, nodes: a.nodes, demand: o.demand})
		}
	}
	return flows, nil
}
