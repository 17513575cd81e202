package am

// WithCeilings sets the retransmit base and attempt ceiling of the fault plan
// given before it (of an empty plan when none was). Production runs keep the
// defaults (8 and 30); a test that drives a socket fault to escalation, where
// a tick is real time, tightens them to stay fast.
func WithCeilings(retransmitBase, maxAttempts int) Option {
	return func(c *config) {
		var fp FaultPlan
		if c.FaultPlan != nil {
			fp = *c.FaultPlan
		}
		fp.retransmitBase, fp.maxAttempts = retransmitBase, maxAttempts
		c.FaultPlan = &fp
	}
}
