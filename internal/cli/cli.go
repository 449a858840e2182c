// Package cli holds the small helpers the command-line tools share:
// the machine-spec mini-language ("gp:4:4:2", "fs:2:2:1", "grid:2",
// "ring:6:2") and the assignment-variant and scheduler name parsers.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"clustersched/internal/assign"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
)

// maxSpecCount bounds every number of a machine spec at the largest
// resource count a machine may have (machine.MaxResources), so a spec
// never asks for an arbitrarily large machine.
const maxSpecCount = machine.MaxResources

// ParseMachine builds a machine from a spec string:
//
//	gp:<clusters>:<buses>:<ports>    bused general-purpose clusters
//	fs:<clusters>:<buses>:<ports>    bused fully specialized clusters
//	grid:<ports>                     the paper's 4-cluster grid
//	ring:<clusters>:<ports>          point-to-point ring
//	unified:<width>                  non-clustered baseline
//
// Every number must lie in 0..maxSpecCount.
func ParseMachine(spec string) (*machine.Config, error) {
	parts := strings.Split(spec, ":")
	nums := make([]int, 0, 3)
	for _, p := range parts[1:] {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad machine spec %q: %q is not a number", spec, p)
		}
		if v < 0 || v > maxSpecCount {
			return nil, fmt.Errorf("bad machine spec %q: %d is outside 0..%d", spec, v, maxSpecCount)
		}
		nums = append(nums, v)
	}
	need := func(n int, shape string) error {
		if len(nums) != n {
			return fmt.Errorf("machine spec %q: want %s", spec, shape)
		}
		return nil
	}
	switch parts[0] {
	case "gp":
		if err := need(3, "gp:clusters:buses:ports"); err != nil {
			return nil, err
		}
		return machine.NewBusedGP(nums[0], nums[1], nums[2]), nil
	case "fs":
		if err := need(3, "fs:clusters:buses:ports"); err != nil {
			return nil, err
		}
		return machine.NewBusedFS(nums[0], nums[1], nums[2]), nil
	case "grid":
		if err := need(1, "grid:ports"); err != nil {
			return nil, err
		}
		return machine.NewGrid4(nums[0]), nil
	case "ring":
		if err := need(2, "ring:clusters:ports"); err != nil {
			return nil, err
		}
		return machine.NewRing(nums[0], nums[1]), nil
	case "unified":
		if err := need(1, "unified:width"); err != nil {
			return nil, err
		}
		return machine.NewUnifiedGP(nums[0]), nil
	default:
		return nil, fmt.Errorf("unknown machine family %q (want gp, fs, grid, ring, or unified)", parts[0])
	}
}

// ParseVariant resolves an assignment-variant name.
func ParseVariant(s string) (assign.Variant, error) {
	switch strings.ToLower(s) {
	case "simple":
		return assign.Simple, nil
	case "simple-iterative":
		return assign.SimpleIterative, nil
	case "heuristic":
		return assign.Heuristic, nil
	case "heuristic-iterative":
		return assign.HeuristicIterative, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (want simple, simple-iterative, heuristic, heuristic-iterative)", s)
	}
}

// ParseScheduler resolves a phase-two scheduler name.
func ParseScheduler(s string) (pipeline.Scheduler, error) {
	switch strings.ToLower(s) {
	case "ims":
		return pipeline.IMS, nil
	case "sms":
		return pipeline.SMS, nil
	default:
		return 0, fmt.Errorf("unknown scheduler %q (want ims or sms)", s)
	}
}
