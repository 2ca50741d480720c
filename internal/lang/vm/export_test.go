package vm

// Verify checks the register code of every function of mod (see verify).
func Verify(mod *Module) error {
	for _, fn := range append([]*Function{mod.TopLevel}, mod.Functions...) {
		if err := verify(fn); err != nil {
			return err
		}
	}
	return nil
}

// ErrLabelDepth is the compiler's stack-depth assertion.
var ErrLabelDepth = errLabelDepth
