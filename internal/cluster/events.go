package cluster

import "vodalloc/internal/des"

// horizonKernel is the des.Kernel the churn engine — the cluster
// layer's one event loop, Simulate's routing pass included — runs on,
// plus its horizon rule. The engine schedules its event kinds as kernel
// classes, so equal-time events fire in kind order. An event scheduled
// at or past the horizon still enters the queue, counting toward Fired
// and Pending like any other, but fires as a no-op — except an arrival
// (cevArrival), whose firing ends the run. A time the kernel refuses
// (NaN, or earlier than now) becomes the run's error.
type horizonKernel struct {
	des.Kernel
	horizon float64
	ended   bool
	err     error
}

// at schedules fn at time t in the given class.
func (k *horizonKernel) at(t float64, class uint8, label string, fn func(now float64)) {
	if t >= k.horizon {
		fn = nop
		if class == cevArrival {
			fn = k.end
		}
	}
	if _, err := k.ScheduleAtClass(t, class, label, fn); err != nil {
		k.fail(err)
	}
}

// end marks the run over and halts Run.
func (k *horizonKernel) end(float64) {
	k.ended = true
	k.Halt()
}

// fail records the run's first error and halts Run.
func (k *horizonKernel) fail(err error) {
	if k.err == nil {
		k.err = err
	}
	k.Halt()
}

func nop(float64) {}
