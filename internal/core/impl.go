// Package core is the paper's contribution packaged as a library: a
// cross-platform framework for deploying the same stateful workflow in
// the six implementation styles of Table II (AWS-Lambda, AWS-Step,
// Az-Func, Az-Queue, Az-Dorch, Az-Dent), measuring end-to-end latency,
// cold starts, and latency breakdowns, and pricing each run with the
// registered providers' billing models. Providers plug in through the
// registry (registry.go); additional clouds (internal/gcp) register
// themselves without touching this package.
package core

import "fmt"

// Impl identifies one implementation style. The six Table II styles
// are declared here; additional providers declare theirs alongside
// their RegisterProvider call.
type Impl string

// The six implementation styles of the paper.
const (
	AWSLambda Impl = "AWS-Lambda"
	AWSStep   Impl = "AWS-Step"
	AzFunc    Impl = "Az-Func"
	AzQueue   Impl = "Az-Queue"
	AzDorch   Impl = "Az-Dorch"
	AzDent    Impl = "Az-Dent"
)

// AllImpls lists the paper's styles in Table II order. Third-provider
// styles are deliberately excluded — every paper table and figure
// iterates this list, and their output must not change as providers
// are registered. Use RegisteredImpls for the full registry contents.
func AllImpls() []Impl {
	return []Impl{AWSLambda, AWSStep, AzFunc, AzQueue, AzDorch, AzDent}
}

// CloudKind identifies a registered provider.
type CloudKind int

// The paper's two cloud kinds. Additional providers allocate the next
// free value alongside their ProviderSpec (internal/gcp takes 2)
// without editing this package.
const (
	AWS CloudKind = iota
	Azure
)

// String implements fmt.Stringer with the registered provider name.
func (c CloudKind) String() string {
	if spec, ok := providerRegistry[c]; ok {
		return spec.Name
	}
	return fmt.Sprintf("cloud(%d)", int(c))
}

// Cloud returns the provider hosting this style. Unregistered styles
// report Azure, preserving the pre-registry fallback.
func (i Impl) Cloud() CloudKind {
	if info, ok := styleRegistry[i]; ok {
		return info.Kind
	}
	return Azure
}

// Stateful reports whether the style uses a platform stateful extension
// (Table II's "Stateful" column).
func (i Impl) Stateful() bool { return styleRegistry[i].Stateful }

// UnsupportedImplError reports a workflow/style combination with no
// implementation (Table II has gaps, e.g. Az-Queue video processing).
type UnsupportedImplError struct {
	Workflow string
	Impl     Impl
}

func (e *UnsupportedImplError) Error() string {
	return fmt.Sprintf("core: workflow %q has no %s implementation", e.Workflow, e.Impl)
}
