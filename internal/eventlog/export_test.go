package eventlog

// Declared is every kind declared in the test binary, in id order.
func Declared() []*Kind { return kinds }

// Format is the format k renders to.
func (k *Kind) Format() string { return k.format }

// Args are the arguments k takes.
func (k *Kind) Args() []Arg {
	args := make([]Arg, len(k.fields))
	for i, f := range k.fields {
		args[i] = f.Arg
	}
	return args
}

// Names are an Enum's values.
func (a Arg) Names() []string { return a.names }

// Is reports whether a and b are the same argument type.
func (a Arg) Is(b Arg) bool { return a.t == b.t }
