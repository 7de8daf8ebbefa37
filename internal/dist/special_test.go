package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// incGammaRef holds P(k, z) and Q(k, z) at integer shapes, on both sides of
// the z = k+1 split and past the Poisson sums' argument cap (z = 701),
// computed with mpmath 1.3.0 at 50 digits by
//
//	python3 - <<'EOF'
//	import mpmath as mp
//	mp.mp.dps = 50
//	for k in (1, 2, 3, 4, 8, 16, 32):
//	    for z in sorted({1e-3, 0.01, 0.1, 0.5, 1, 2, 5, 10, 20, 50, 100, 300, 700, 701, k + 0.5, k + 0.999, k + 1, k + 1.5}):
//	        p = mp.gammainc(k, 0, z, regularized=True)
//	        q = mp.gammainc(k, z, mp.inf, regularized=True)
//	        print('{%d, %r, %s, %s},' % (k, z, mp.nstr(p, 17), mp.nstr(q, 17)))
//	EOF
var incGammaRef = []struct{ k, z, p, q float64 }{
	{1, 0.001, 0.00099950016662500835, 0.99900049983337499},
	{1, 0.01, 0.0099501662508319466, 0.99004983374916805},
	{1, 0.1, 0.095162581964040432, 0.90483741803595957},
	{1, 0.5, 0.39346934028736658, 0.60653065971263342},
	{1, 1, 0.63212055882855768, 0.36787944117144232},
	{1, 1.5, 0.77686983985157017, 0.22313016014842983},
	{1, 1.999, 0.86452931378994757, 0.13547068621005243},
	{1, 2, 0.86466471676338731, 0.13533528323661269},
	{1, 2.5, 0.9179150013761012, 0.082084998623898795},
	{1, 5, 0.99326205300091453, 0.0067379469990854671},
	{1, 10, 0.99995460007023752, 4.5399929762484852e-5},
	{1, 20, 0.99999999793884638, 2.0611536224385578e-9},
	{1, 50, 1.0, 1.9287498479639178e-22},
	{1, 100, 1.0, 3.720075976020836e-44},
	{1, 300, 1.0, 5.1482002224120138e-131},
	{1, 700, 1.0, 9.8596765437597709e-305},
	{1, 701, 1.0, 3.6271722970495224e-305},
	{2, 0.001, 4.996667916333403e-7, 0.99999950033320837},
	{2, 0.01, 4.9667913340265892e-5, 0.99995033208665973},
	{2, 0.1, 0.00467884016044447, 0.99532115983955553},
	{2, 0.5, 0.090204010431049865, 0.90979598956895014},
	{2, 1, 0.26424111765711536, 0.73575888234288464},
	{2, 2, 0.59399415029016192, 0.40600584970983808},
	{2, 2.5, 0.71270250481635422, 0.28729749518364578},
	{2, 2.999, 0.80070231552807444, 0.19929768447192556},
	{2, 3, 0.80085172652854423, 0.19914827347145577},
	{2, 3.5, 0.86411177459956675, 0.13588822540043325},
	{2, 5, 0.9595723180054872, 0.040427681994512803},
	{2, 10, 0.99950060077261267, 0.00049939922738733337},
	{2, 20, 0.99999995671577393, 4.3284226071209714e-8},
	{2, 50, 1.0, 9.8366242246159807e-21},
	{2, 100, 1.0, 3.7572767357810443e-42},
	{2, 300, 1.0, 1.5496082669460161e-128},
	{2, 700, 1.0, 6.9116332571755994e-302},
	{2, 701, 1.0, 2.5462749525287647e-302},
	{3, 0.001, 1.6654171665278076e-10, 0.99999999983345828},
	{3, 0.01, 1.6542165280748769e-7, 0.99999983457834719},
	{3, 0.1, 0.00015465307026467168, 0.99984534692973533},
	{3, 0.5, 0.014387677966970687, 0.98561232203302931},
	{3, 1, 0.080301397071394196, 0.9196986029286058},
	{3, 2, 0.32332358381693654, 0.67667641618306346},
	{3, 3.5, 0.67915280113786593, 0.32084719886213407},
	{3, 3.999, 0.76175013270101618, 0.23824986729898382},
	{3, 4, 0.76189669444645566, 0.23810330555354434},
	{3, 4.5, 0.82642192908996396, 0.17357807091003604},
	{3, 5, 0.87534798051691886, 0.12465201948308114},
	{3, 10, 0.99723060428448842, 0.0027693957155115759},
	{3, 20, 0.99999954448504944, 4.5551495055892128e-7},
	{3, 50, 1.0, 2.509303552201057e-19},
	{3, 100, 1.0, 1.8976107553682284e-40},
	{3, 300, 1.0, 2.3321861827548664e-126},
	{3, 700, 1.0, 2.4225323864783195e-299},
	{3, 701, 1.0, 8.9374432192374494e-300},
	{4, 0.001, 4.163334721825484e-14, 0.99999999999995837},
	{4, 0.01, 4.1334718262633404e-10, 0.99999999958665282},
	{4, 0.1, 3.8468339253450588e-6, 0.99999615316607465},
	{4, 0.5, 0.0017516225562908237, 0.99824837744370918},
	{4, 1, 0.018988156876153809, 0.98101184312384619},
	{4, 2, 0.14287653950145295, 0.85712346049854705},
	{4, 4.5, 0.65770404416540893, 0.34229595583459107},
	{4, 4.999, 0.73483368273110973, 0.26516631726889027},
	{4, 5, 0.73497408470263829, 0.26502591529736171},
	{4, 5.5, 0.79830080129747136, 0.20169919870252864},
	{4, 10, 0.98966394932407428, 0.010336050675925718},
	{4, 20, 0.99999679628021952, 3.2037197804769984e-6},
	{4, 50, 1.0, 4.2691592051449344e-18},
	{4, 100, 1.0, 6.3898877022382161e-39},
	{4, 300, 1.0, 2.3400119619129549e-124},
	{4, 700, 1.0, 5.6606737480474522e-297},
	{4, 701, 1.0, 2.0913702129753126e-297},
	{8, 0.001, 2.4779551363837473e-29, 1.0},
	{8, 0.01, 2.4582117811911106e-21, 1.0},
	{8, 0.1, 2.2693269500714717e-13, 0.99999999999977307},
	{8, 0.5, 6.2196908637286483e-8, 0.99999993780309136},
	{8, 1, 1.0249196674641695e-5, 0.99998975080332536},
	{8, 2, 0.0010967189678587027, 0.9989032810321413},
	{8, 5, 0.1333716740700073, 0.8666283259299927},
	{8, 8.5, 0.61440289817284739, 0.38559710182715261},
	{8, 8.999, 0.67598590655047165, 0.32401409344952835},
	{8, 9, 0.67610303568710395, 0.32389696431289605},
	{8, 9.5, 0.73133681821615637, 0.26866318178384363},
	{8, 10, 0.77977935339830106, 0.22022064660169894},
	{8, 20, 0.99922140991749264, 0.00077859008250736304},
	{8, 50, 0.99999999999996536, 3.4639966763825052e-14},
	{8, 100, 1.0, 7.9303949095844556e-34},
	{8, 300, 1.0, 2.2871368149134057e-117},
	{8, 700, 1.0, 1.6273347746835421e-288},
	{8, 701, 1.0, 6.0466666811439256e-289},
	{16, 0.001, 4.7749811243219372e-62, 1.0},
	{16, 0.01, 4.7347057683189245e-46, 1.0},
	{16, 0.1, 4.3502311222280557e-30, 1.0},
	{16, 0.5, 4.5571801675124035e-19, 1.0},
	{16, 1, 1.8677634631680655e-14, 0.99999999999998132},
	{16, 2, 4.7996827572653579e-10, 0.99999999952003172},
	{16, 5, 6.9008241855678403e-5, 0.99993099175814432},
	{16, 10, 0.048740403303978704, 0.9512595966960213},
	{16, 16.5, 0.58198049939212457, 0.41801950060787543},
	{16, 16.999, 0.62845571776840727, 0.37154428223159273},
	{16, 17, 0.6285463439246325, 0.3714536560753675},
	{16, 17.5, 0.67245760858924412, 0.32754239141075588},
	{16, 20, 0.84348686536025698, 0.15651313463974302},
	{16, 50, 0.99999999364201789, 6.3579821110166647e-9},
	{16, 100, 1.0, 3.3400763612443933e-26},
	{16, 300, 1.0, 5.9452678341260395e-106},
	{16, 700, 1.0, 3.6578617186638075e-274},
	{16, 701, 1.0, 1.374734857917314e-274},
	{32, 0.001, 3.7967073152963114e-132, 1.0},
	{32, 0.01, 3.7637167450838063e-100, 1.0},
	{32, 0.1, 3.4491869056180094e-68, 1.0},
	{32, 0.5, 5.4494003046680866e-46, 1.0},
	{32, 1, 1.4417345421413976e-36, 1.0},
	{32, 2, 2.3512490445741226e-27, 1.0},
	{32, 5, 7.020264582094913e-16, 0.9999999999999993},
	{32, 10, 2.4625955130183168e-8, 0.99999997537404487},
	{32, 20, 0.0080917546698351158, 0.99190824533016488},
	{32, 32.5, 0.55836503816038089, 0.44163496183961911},
	{32, 32.999, 0.59235722922999188, 0.40764277077000812},
	{32, 33, 0.59242440391259496, 0.40757559608740504},
	{32, 33.5, 0.62546833573706297, 0.37453166426293703},
	{32, 50, 0.99731371710534498, 0.0026862828946550171},
	{32, 100, 0.99999999999999935, 6.5158675615721109e-16},
	{32, 300, 1.0, 4.310990224150755e-88},
	{32, 700, 1.0, 1.979347629098493e-250},
	{32, 701, 1.0, 7.6105894048303399e-251},
}

// relErr is |got − want| relative to |want|, or |got| when want is 0.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestIncGammaReference checks P and Q, and the pair's P(k+1, z), against
// the mpmath table. Past maxIntX the general path serves integer shapes
// too; its log-domain prefactor rounds an exponent near −z, so its
// relative error grows with z.
func TestIncGammaReference(t *testing.T) {
	var worstP, worstQ float64
	for _, r := range incGammaRef {
		tol := gammaEps
		if !intShape(r.k, r.z) {
			tol = 2 * r.z * 0x1p-52
		}
		p, q := regIncGammaP(r.k, r.z), regIncGammaQ(r.k, r.z)
		ep, eq := relErr(p, r.p), relErr(q, r.q)
		if ep > tol {
			t.Errorf("P(%g, %g) = %.17g, mpmath %.17g (rel err %.2g)", r.k, r.z, p, r.p, ep)
		}
		if eq > tol {
			t.Errorf("Q(%g, %g) = %.17g, mpmath %.17g (rel err %.2g)", r.k, r.z, q, r.q, eq)
		}
		if intShape(r.k, r.z) {
			worstP, worstQ = math.Max(worstP, ep), math.Max(worstQ, eq)
		}
		if r.k > 1 {
			if _, p1 := IncGammaPair(r.k-1, r.z); relErr(p1, r.p) > tol {
				t.Errorf("IncGammaPair(%g, %g) P(k+1) = %.17g, mpmath %.17g", r.k-1, r.z, p1, r.p)
			}
		}
	}
	t.Logf("worst relative error of the Poisson sums: P %.2g, Q %.2g", worstP, worstQ)
}

// TestPropertyIntShapeMatchesGeneralPath draws integer shapes and
// arguments over the Poisson sums' whole range and requires them to agree
// with the general series and continued fraction, for P, Q and the
// pair's P(k+1, z). Above z ≈ 225 the general path's own rounding, which
// grows with z (see TestIncGammaReference), sets the tolerance.
func TestPropertyIntShapeMatchesGeneralPath(t *testing.T) {
	general := func(a, z float64) (p, q float64) {
		if z < a+1 {
			p = gammaSeriesP(a, z)
			return p, 1 - p
		}
		q = gammaCFQ(a, z)
		return 1 - q, q
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := float64(1 + rng.Intn(maxIntShape))
		z := 1e-3 * math.Pow(maxIntX/1e-3, rng.Float64())
		if !intShape(k, z) {
			t.Fatalf("intShape(%g, %g) = false inside the closed forms' range", k, z)
		}
		tol := math.Max(1e-13, 2*z*0x1p-52)
		gp, gq := general(k, z)
		if p := regIncGammaP(k, z); relErr(p, gp) > tol {
			t.Errorf("P(%g, %g): Poisson sum %.17g, general %.17g", k, z, p, gp)
		}
		if q := regIncGammaQ(k, z); relErr(q, gq) > tol {
			t.Errorf("Q(%g, %g): Poisson sum %.17g, general %.17g", k, z, q, gq)
		}
		gp1, _ := general(k+1, z)
		if _, p1 := IncGammaPair(k, z); relErr(p1, gp1) > tol {
			t.Errorf("IncGammaPair(%g, %g) P(k+1): %.17g, general %.17g", k, z, p1, gp1)
		}
	}
}

func TestIncGammaEdges(t *testing.T) {
	for k := 1.0; k <= maxIntShape+1; k++ {
		for _, c := range []struct{ z, p, q float64 }{
			{0, 0, 1}, {math.Inf(1), 1, 0}, {1e300, 1, 0},
		} {
			p, q := regIncGammaP(k, c.z), regIncGammaQ(k, c.z)
			pa, pa1 := IncGammaPair(k, c.z)
			if p != c.p || q != c.q || pa != c.p || pa1 != c.p {
				t.Errorf("k=%g z=%g: P=%v Q=%v pair=(%v, %v), want P=%v Q=%v",
					k, c.z, p, q, pa, pa1, c.p, c.q)
			}
		}
	}
	// The closed forms' boundaries: integer shapes up to maxIntShape and
	// arguments up to maxIntX.
	for _, c := range []struct {
		a, z float64
		want bool
	}{
		{1, 1, true}, {maxIntShape, 10, true}, {maxIntShape + 1, 10, false},
		{2.5, 10, false}, {0.5, 10, false}, {2, maxIntX, true},
		{2, math.Nextafter(maxIntX, math.Inf(1)), false},
	} {
		if got := intShape(c.a, c.z); got != c.want {
			t.Errorf("intShape(%g, %g) = %v, want %v", c.a, c.z, got, c.want)
		}
	}
	// Across the shape cap, the pair at k = 32 gives P(33, z) from the
	// Poisson sums; the general path gives it for k = 33.
	for _, z := range []float64{1, 5, 20, 32.5, 33, 33.5, 34, 50, 100, 700} {
		_, p33 := IncGammaPair(maxIntShape, z)
		if g := regIncGammaP(maxIntShape+1, z); relErr(p33, g) > 1e-13 {
			t.Errorf("P(33, %g): pair at k=32 %.17g, general %.17g", z, p33, g)
		}
	}
}

// TestIncGammaNonIntegerShapesUnchanged pins exact float64 bits of
// non-integer shapes, recorded before integer shapes got the Poisson
// sums: only the general series and continued fraction serve them.
func TestIncGammaNonIntegerShapesUnchanged(t *testing.T) {
	for _, c := range []struct {
		k, theta, x float64
		bits        uint64
	}{
		{2.5, 3, 0.001, 0x3e04f7eec87149da},
		{2.5, 3, 0.5, 0x3f68d4f6d5b3d237},
		{2.5, 3, 1, 0x3f8f3c81067b2a38},
		{2.5, 3, 3, 0x3fc34f37283a59ad},
		{2.5, 3, 7.5, 0x3fe2b11c08b99904},
		{2.5, 3, 10.5, 0x3fe8f083bca77055},
		{2.5, 3, 12, 0x3feb001e2422ad40},
		{2.5, 3, 30, 0x3feff5c320034b85},
		{2.5, 3, 100, 0x3fefffffffffee38},
		{2.5, 3, 1000, 0x3ff0000000000000},
		{0.5, 2, 0.0001, 0x3f805724ae747707},
		{0.5, 2, 0.1, 0x3fcfc40beace01c8},
		{0.5, 2, 1, 0x3fe5d897a241a6fa},
		{0.5, 2, 2, 0x3feaf767a741088c},
		{0.5, 2, 3, 0x3fed55e5a70068f1},
		{0.5, 2, 5, 0x3fef305ad1e7a5c4},
		{0.5, 2, 20, 0x3fefffefc25aff8e},
		{0.5, 2, 100, 0x3ff0000000000000},
	} {
		if got := MustGamma(c.k, c.theta).CDF(c.x); math.Float64bits(got) != c.bits {
			t.Errorf("Gamma(%g, %g).CDF(%g) = %#016x (%.17g), want %#016x",
				c.k, c.theta, c.x, math.Float64bits(got), got, c.bits)
		}
	}
}

// TestIncGammaLargeShapes pins the iteration bound. Near x ≈ a the series
// and the continued fraction need O(√a) terms; a fixed cap of 500
// returned the truncated sum, P(1e6, 1e6) = 0.19 instead of 0.50.
// References: mpmath 1.3.0 at 40 digits, mp.gammainc(a, 0, x,
// regularized=True). The tolerance is the rounding of the log-domain
// prefactor exp(−x + a·ln x − lnΓ(a)), whose terms reach a·ln a.
func TestIncGammaLargeShapes(t *testing.T) {
	for _, c := range []struct{ a, x, p float64 }{
		{1e4, 9700, 0.0012341755844684919966},
		{1e4, 9900, 0.15865119219356465696},
		{1e4, 9990, 0.46148242570936408715},
		{1e4, 1e4, 0.50132980833995520038},
		{1e4, 10001, 0.50531893196221856869},
		{1e4, 10100, 0.8413487504471796224},
		{1e4, 10300, 0.99852950510361431872},
		{1e6, 997000, 0.0013381041673135996923},
		{1e6, 999000, 0.15865521357430365246},
		{1e6, 999900, 0.46030316025140009975},
		{1e6, 1e6, 0.50013298076087259124},
		{1e6, 1000001, 0.50053192274206756324},
		{1e6, 1001000, 0.84134478636834029163},
		{1e6, 1003000, 0.99863825935378240852},
	} {
		tol := 8 * c.a * math.Log(c.a) * 0x1p-53
		p, q := regIncGammaP(c.a, c.x), regIncGammaQ(c.a, c.x)
		if e := relErr(p, c.p); e > tol {
			t.Errorf("P(%g, %g) = %.17g, mpmath %.17g (rel err %.2g > %.2g)", c.a, c.x, p, c.p, e, tol)
		}
		if e := relErr(q, 1-c.p); e > tol/(1-c.p) {
			t.Errorf("Q(%g, %g) = %.17g, mpmath %.17g (rel err %.2g)", c.a, c.x, q, 1-c.p, e)
		}
	}
}

// TestGammaShapeLimit: shapes up to MaxGammaShape are accepted and
// converge; larger ones are refused with ErrBadParam.
func TestGammaShapeLimit(t *testing.T) {
	d, err := NewGamma(MaxGammaShape, 1)
	if err != nil {
		t.Fatalf("NewGamma(MaxGammaShape, 1): %v", err)
	}
	// P(a, a) = 1/2 + 1/(3√(2πa)) + O(1/a), and at the split x = a+1 the
	// continued fraction agrees with the series one ulp below it; a
	// truncated loop misses both by orders of magnitude more.
	const a = float64(MaxGammaShape)
	if got, want := d.CDF(a), 0.5+1/(3*math.Sqrt(2*math.Pi*a)); math.Abs(got-want) > 1e-6 {
		t.Errorf("P(%g, %g) = %.10g, want %.10g", a, a, got, want)
	}
	below := math.Nextafter(a+1, 0)
	if series, cf := d.CDF(below), d.CDF(a+1); math.Abs(cf-series) > 1e-6 {
		t.Errorf("P(%g, a+1) = %.10g by the continued fraction, %.10g by the series", a, cf, series)
	}
	over := math.Nextafter(MaxGammaShape, math.Inf(1))
	if _, err := NewGamma(over, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("NewGamma(%g, 1): err %v, want ErrBadParam", over, err)
	}
	if _, err := Parse("gamma:1e9:1"); !errors.Is(err, ErrBadParam) {
		t.Errorf("Parse(gamma:1e9:1): err %v, want ErrBadParam", err)
	}
	if _, err := GammaFromMoments(8, 1e-5); !errors.Is(err, ErrBadParam) {
		t.Errorf("GammaFromMoments(8, 1e-5): err %v, want ErrBadParam", err)
	}
	if _, err := GammaFromMoments(8, 1e-3); err != nil {
		t.Errorf("GammaFromMoments(8, 1e-3): %v", err)
	}
}
