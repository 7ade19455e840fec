package core

// MeasureSharded exposes measureSharded to the external tests.
var MeasureSharded = measureSharded
