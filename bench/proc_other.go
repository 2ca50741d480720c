//go:build !linux

package main

import "syscall"

// Off Linux there is no parent-death signal and no /proc: the gateway is
// still killed by stop and the signal handler, and the two process
// metrics are reported as n/a.
func procAttr() *syscall.SysProcAttr { return nil }

func cpuSeconds(int) (float64, bool) { return 0, false }

func peakRSSMB(int) (float64, bool) { return 0, false }
