package policy

import "testing"

// FuzzPolicyRoundTrip checks the property Snapshot.Policy relies on: any
// text that parses prints to text that parses again, and printing is then
// a fixed point.
func FuzzPolicyRoundTrip(f *testing.F) {
	for _, src := range []string{
		paperExample,
		// examples/quickstart
		`# FTP data must pass deep-packet inspection.
[ x : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 20) -> .* dpi .*
  y : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 21) -> .*
  z : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02 and tcp.dst = 80) -> .* dpi .* nat .* ],
max(x + y, 50MB/s) and min(z, 10MB/s)`,
		// examples/campus (its combination policy, two hosts a side)
		`a := {00:00:00:00:00:01, 00:00:00:00:00:02}
b := {00:00:00:00:00:03, 00:00:00:00:00:04}
foreach (s,d) in cross(a,a): tcp.dst != 80 -> .*
foreach (s,d) in cross(a,b): tcp.dst != 80 -> .* mon .*
foreach (s,d) in cross(b,a): tcp.dst = 80 -> ( .* fw .* ) at min(500kbps)`,
		// examples/datacenter
		`[ h0 : (eth.src = 00:00:00:00:00:01 and eth.dst = 00:00:00:00:00:02) -> .* at min(150Mbps) ;
 h1 : (eth.src = 00:00:00:00:00:02 and eth.dst = 00:00:00:00:00:01) -> .* at min(150Mbps) ; ]`,
		// examples/delegation
		`[ x : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 80) -> .* log .*
  y : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and tcp.dst = 22) -> .*
  z : (ip.src = 192.168.1.1 and ip.dst = 192.168.1.2 and
       !(tcp.dst = 22 or tcp.dst = 80)) -> .* dpi .* ],
max(x, 50MB/s) and max(y, 25MB/s) and max(z, 25MB/s)`,
		`[ a : ip.src = 10.0.0.1 -> .* ; b : ip.src = 10.0.0.2 -> .* ],
max(a, 100Mbps) and max(b, 100Mbps)`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src, Env{})
		if err != nil {
			return
		}
		printed := p.String()
		re, err := Parse(printed, Env{})
		if err != nil {
			t.Fatalf("printed policy does not parse: %v\nsource: %q\nprinted: %q", err, src, printed)
		}
		if again := re.String(); again != printed {
			t.Fatalf("printing is not a fixed point:\nsource: %q\nprinted: %q\nreprinted: %q", src, printed, again)
		}
	})
}
