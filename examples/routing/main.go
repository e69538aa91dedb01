// QoS routing shoot-out on a campus wireless mesh: the same streaming
// flows are routed with the paper's three metrics — hop count, e2eTD
// (end-to-end transmission delay), and average-e2eD (Eq. 14, which
// folds in carrier-sensed channel business) — and the exact available
// bandwidth of every chosen path is computed. Average-e2eD routes
// around congested regions and finds the paths with the most available
// bandwidth (the paper's Fig. 3 conclusion).
package main

import (
	"fmt"
	"log"

	"abw"
)

func main() {
	// A 5x5 campus grid, 100 m between access points (18 Mbps adjacent
	// links); carrier sensing at the decode range so channel business is
	// a local observation.
	sys, err := abw.NewSystem(abw.Grid(25, 5, 100), abw.WithCSRangeFactor(1.0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campus mesh: %d nodes, %d links\n\n", sys.NumNodes(), sys.NumLinks())

	metrics := []abw.RouteMetric{abw.RouteHopCount, abw.RouteE2ETD, abw.RouteAvgE2ED}

	// Load the middle row of the mesh with a 3 Mbps stream, then ask
	// each metric for a corner-to-corner route.
	centerPath, err := sys.Route(abw.RouteE2ETD, 10, 14, nil)
	if err != nil {
		log.Fatal(err)
	}
	background := []abw.Flow{{Path: centerPath, Demand: 3}}

	fmt.Println("3 Mbps crossing the middle row (10 -> 14); routing 0 -> 24:")
	for _, metric := range metrics {
		path, err := sys.Route(metric, 0, 24, background)
		if err != nil {
			log.Fatal(err)
		}
		nodes, err := sys.Network().PathNodes(path)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.AvailableBandwidth(background, path)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13s route %v -> available %.2f Mbps\n", metric, nodes, res.Bandwidth)
	}
	fmt.Println("\nhop count cuts straight through the congested center;")
	fmt.Println("average-e2eD hugs the idle border and finds the widest path.")

	// Sequential admission of six streams under each metric.
	requests := []abw.Request{
		{Src: 0, Dst: 24, Demand: 2},
		{Src: 4, Dst: 20, Demand: 2},
		{Src: 0, Dst: 4, Demand: 2},
		{Src: 20, Dst: 24, Demand: 2},
		{Src: 2, Dst: 22, Demand: 2},
		{Src: 10, Dst: 14, Demand: 2},
	}
	fmt.Println("\nsequential admission of six 2 Mbps streams:")
	fmt.Println("metric        admitted  first failure")
	for _, metric := range metrics {
		decisions, err := sys.Admit(metric, requests, false)
		if err != nil {
			log.Fatal(err)
		}
		admitted := 0
		firstFail := "none"
		for i, d := range decisions {
			if d.Admitted {
				admitted++
			} else if firstFail == "none" {
				firstFail = fmt.Sprintf("flow %d", i+1)
			}
		}
		fmt.Printf("%-13s %-9d %s\n", metric, admitted, firstFail)
	}
}
