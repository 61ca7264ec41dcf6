package main

import (
	"fmt"
	"net"

	"bayessuite/internal/cluster"
	"bayessuite/internal/hw"
	"bayessuite/internal/mathx"
	"bayessuite/internal/serve"
)

// runCoordinator boots the fleet control plane: calibrate the LLC
// predictor, start the coordinator (durable when stateDir is set — its
// journal replays before any lease is granted, while /readyz reports
// "recovering"), and serve the client API plus the /cluster/v1 worker
// protocol until a signal drains it.
func runCoordinator(addr string, queueCap int, seed uint64, node, stateDir string, pprofOn bool) error {
	pts, err := serve.SuiteCalibration(seed)
	if err != nil {
		return fmt.Errorf("calibrating predictor: %w", err)
	}
	co := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Node:              node,
		QueueCap:          queueCap,
		CalibrationPoints: pts,
		StateDir:          stateDir,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if stateDir != "" {
		fmt.Printf("bayesd: coordinator %s durable in %s\n", node, stateDir)
	}
	fmt.Printf("bayesd: coordinator %s listening on http://%s\n", node, ln.Addr())
	return serveUntilSignal(ln, withPprof(co.Handler(), pprofOn), "coordinator ", "", co.Shutdown)
}

// runWorker boots one fleet worker: an embedded single-platform engine
// pulling work from the coordinator, its own API served on addr (the
// /readyz capability probe is how operators inspect a worker directly).
func runWorker(addr, coordinator, name, platform string, slots, retries int, pprofOn bool) error {
	plat, ok := hw.ByName(platform)
	if !ok {
		return fmt.Errorf("unknown platform %q (want Skylake or Broadwell)", platform)
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:        name,
		Coordinator: coordinator,
		Platform:    plat,
		Slots:       slots,
		Engine:      serve.Config{MaxRetries: retries},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("bayesd: worker %s (%s, %d slots, %s kernels) on http://%s, pulling from %s\n",
		name, plat.Codename, slots, mathx.VectorISA(), ln.Addr(), coordinator)
	return serveUntilSignal(ln, withPprof(w.Engine().Handler(), pprofOn),
		"worker "+name+" ", " (running jobs finish and upload)", w.Stop)
}
