package cluster

import "vodalloc/internal/des"

// horizonKernel is the des.Kernel the churn engine — the cluster
// layer's one event loop, Simulate's routing pass included — runs on,
// plus its horizon rule. The engine's event kinds double as kernel
// classes, so equal-time events fire in kind order. An event scheduled
// at or past the horizon still enters the queue, counting toward Fired
// and Pending like any other, but fires on the horizonKernel itself: as
// a no-op, except an arrival (cevArrival), whose firing ends the run. A
// time the kernel refuses (NaN, or earlier than now) becomes the run's
// error.
type horizonKernel struct {
	des.Kernel
	horizon float64
	ended   bool
	err     error
}

// at schedules an event of the given kind, in the class of the same
// number, at time t: r fires it with operand arg.
func (k *horizonKernel) at(t float64, kind des.Kind, r des.Receiver, arg int) {
	if t >= k.horizon {
		r = k
	}
	if _, err := k.ScheduleEvent(t, uint8(kind), r, kind, arg); err != nil {
		k.fail(err)
	}
}

// Fire is an event at or past the horizon: an arrival marks the run over
// and halts Run; any other kind does nothing.
func (k *horizonKernel) Fire(_ float64, kind des.Kind, _ int) {
	if kind == cevArrival {
		k.ended = true
		k.Halt()
	}
}

// fail records the run's first error and halts Run.
func (k *horizonKernel) fail(err error) {
	if k.err == nil {
		k.err = err
	}
	k.Halt()
}
