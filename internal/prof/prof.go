// Package prof backs the commands' -cpuprofile and -memprofile flags with
// runtime/pprof, so any run can be profiled without a test harness.
package prof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath when it is non-empty and returns
// a stop function that ends it and writes a heap profile to memPath when
// that is non-empty. The caller must run stop on every exit path it wants
// profiled — including those that leave through os.Exit, which skips
// deferred calls. stop does its work once; later calls return nil.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeHeap(memPath); err != nil {
				errs = append(errs, fmt.Errorf("heap profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes the heap profile as of a fresh collection, so it shows
// the live heap at exit rather than at the last automatic GC.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
