package dataframe

import (
	"math"

	"statebench/internal/sim"
)

// This file generates the synthetic car-pricing dataset matching the
// shape the paper describes: 26 features of which 12 are categorical,
// in "small" (200-row) and "large" (10k-row) variants, with a price
// target that is a noisy nonlinear function of the features so the
// model-selection step has real signal to find.

// Car dataset categorical vocabularies.
var carCategoricals = map[string][]string{
	"make":         {"alfa", "audi", "bmw", "chevy", "dodge", "honda", "jaguar", "mazda", "mercedes", "nissan", "toyota", "vw"},
	"fuel_type":    {"gas", "diesel"},
	"aspiration":   {"std", "turbo"},
	"num_doors":    {"two", "four"},
	"body_style":   {"sedan", "hatchback", "wagon", "convertible", "hardtop"},
	"drive_wheels": {"fwd", "rwd", "4wd"},
	"engine_loc":   {"front", "rear"},
	"engine_type":  {"ohc", "dohc", "ohcv", "rotor"},
	"num_cyl":      {"four", "six", "five", "eight", "two", "three"},
	"fuel_system":  {"mpfi", "2bbl", "idi", "1bbl", "spdi"},
	"market":       {"economy", "mid", "luxury"},
	"region":       {"na", "eu", "jp"},
}

// carCategoricalOrder fixes generation order for determinism.
var carCategoricalOrder = []string{
	"make", "fuel_type", "aspiration", "num_doors", "body_style", "drive_wheels",
	"engine_loc", "engine_type", "num_cyl", "fuel_system", "market", "region",
}

// carNumerics are the 14 numeric feature names (26 total with the 12
// categoricals).
var carNumerics = []string{
	"wheel_base", "length", "width", "height", "curb_weight", "engine_size",
	"bore", "stroke", "compression", "horsepower", "peak_rpm", "city_mpg",
	"highway_mpg", "age",
}

// GenerateCars builds the synthetic car dataset with n rows, a "price"
// numeric target column, and the 26-feature shape from the paper. The
// same seed always yields the same dataset.
func GenerateCars(n int, seed uint64) *DataFrame {
	r := sim.NewRNG(seed)
	df := New()

	cats := make(map[string][]string, len(carCategoricalOrder))
	for _, name := range carCategoricalOrder {
		vocab := carCategoricals[name]
		col := make([]string, n)
		for i := range col {
			col[i] = vocab[r.Intn(len(vocab))]
		}
		cats[name] = col
	}

	nums := make(map[string][]float64, len(carNumerics))
	for _, name := range carNumerics {
		nums[name] = make([]float64, n)
	}
	price := make([]float64, n)

	for i := 0; i < n; i++ {
		hp := 60 + r.Float64()*240
		size := 70 + r.Float64()*250
		weight := 1500 + size*6 + hp*4 + r.Normal(0, 120)
		wheelBase := 86 + r.Float64()*35
		length := 140 + wheelBase*0.6 + r.Normal(0, 6)
		nums["wheel_base"][i] = wheelBase
		nums["length"][i] = length
		nums["width"][i] = 60 + r.Float64()*12
		nums["height"][i] = 47 + r.Float64()*12
		nums["curb_weight"][i] = weight
		nums["engine_size"][i] = size
		nums["bore"][i] = 2.5 + r.Float64()*1.5
		nums["stroke"][i] = 2.0 + r.Float64()*2.1
		nums["compression"][i] = 7 + r.Float64()*16
		nums["horsepower"][i] = hp
		nums["peak_rpm"][i] = 4100 + r.Float64()*2600
		nums["city_mpg"][i] = math.Max(10, 52-hp*0.12+r.Normal(0, 2.5))
		nums["highway_mpg"][i] = nums["city_mpg"][i] + 4 + r.Float64()*4
		nums["age"][i] = float64(r.Intn(12))

		// Price: nonlinear in power and size, with brand/market/fuel
		// multipliers and noise — enough structure that trees beat a
		// plain linear fit but linear models stay competitive.
		base := 3500 + 85*hp + 22*size + 1.8*weight - 240*nums["age"][i]
		base += 0.9 * hp * hp / 10
		base += 0.004 * hp * size // power/displacement interaction
		switch cats["market"][i] {
		case "luxury":
			base *= 1.95
		case "mid":
			base *= 1.25
		}
		switch cats["make"][i] {
		case "bmw", "mercedes", "jaguar":
			base *= 1.45
		case "chevy", "dodge":
			base *= 0.82
		}
		if hp > 220 {
			base *= 1.35 // sports premium: a threshold effect
		}
		if cats["fuel_type"][i] == "diesel" {
			base += 900
		}
		if cats["aspiration"][i] == "turbo" {
			base += 1400
		}
		if cats["drive_wheels"][i] == "rwd" {
			base += 600
		}
		price[i] = base + r.Normal(0, base*0.04)
	}

	for _, name := range carCategoricalOrder {
		if err := df.AddCategorical(name, cats[name]); err != nil {
			panic(err)
		}
	}
	for _, name := range carNumerics {
		if err := df.AddNumeric(name, nums[name]); err != nil {
			panic(err)
		}
	}
	if err := df.AddNumeric("price", price); err != nil {
		panic(err)
	}
	return df
}
