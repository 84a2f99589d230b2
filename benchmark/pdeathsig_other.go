//go:build !linux

package main

import "os/exec"

// setParentDeathSignal is Linux-only; elsewhere an uncatchable death of
// the benchmark can orphan its daemons.
func setParentDeathSignal(*exec.Cmd) {}
