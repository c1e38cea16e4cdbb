// Every binary operator over an operand matrix, then prefix and
// postfix ++/-- on the same operands, on a local variable and on an
// object property. A number prints as "r|1/r", so -0 shows as
// "0|-Infinity"; a thrown error prints as "!" and its name.
var N = ["0", "-0", "1", "-1.5", "2147483648", "NaN", "Infinity",
         "-Infinity", "\"3\"", "\"\"", "true", "null", "undefined", "{}"];
var V = [0, -0, 1, -1.5, 2147483648, NaN, Infinity, -Infinity, "3", "",
         true, null, undefined, {}];

function show(r) {
  if (typeof r === "number") return r + "|" + 1 / r;
  return typeof r + ":" + r;
}

function row(op, f) {
  for (var i = 0; i < V.length; i++) {
    var out = op + " " + N[i] + ":";
    for (var j = 0; j < V.length; j++) {
      var s;
      try { s = show(f(V[i], V[j])); } catch (e) { s = "!" + e.name; }
      out = out + " " + s;
    }
    console.log(out);
  }
}

row("+", function (a, b) { return a + b; });
row("-", function (a, b) { return a - b; });
row("*", function (a, b) { return a * b; });
row("/", function (a, b) { return a / b; });
row("%", function (a, b) { return a % b; });
row("==", function (a, b) { return a == b; });
row("!=", function (a, b) { return a != b; });
row("===", function (a, b) { return a === b; });
row("!==", function (a, b) { return a !== b; });
row("<", function (a, b) { return a < b; });
row("<=", function (a, b) { return a <= b; });
row(">", function (a, b) { return a > b; });
row(">=", function (a, b) { return a >= b; });
row("&", function (a, b) { return a & b; });
row("|", function (a, b) { return a | b; });
row("^", function (a, b) { return a ^ b; });
row("<<", function (a, b) { return a << b; });
row(">>", function (a, b) { return a >> b; });
row(">>>", function (a, b) { return a >>> b; });
row("instanceof", function (a, b) { return a instanceof b; });
row("in", function (a, b) { return a in b; });

function updates(v) {
  var x = v; var r = x++; var out = "x++ " + show(r) + " " + show(x);
  x = v; r = ++x; out = out + "; ++x " + show(r) + " " + show(x);
  x = v; r = x--; out = out + "; x-- " + show(r) + " " + show(x);
  x = v; r = --x; out = out + "; --x " + show(r) + " " + show(x);
  var o = { p: v }; r = o.p++; out = out + "; o.p++ " + show(r) + " " + show(o.p);
  o.p = v; r = ++o.p; out = out + "; ++o.p " + show(r) + " " + show(o.p);
  o.p = v; r = o.p--; out = out + "; o.p-- " + show(r) + " " + show(o.p);
  o.p = v; r = --o.p; out = out + "; --o.p " + show(r) + " " + show(o.p);
  return out;
}

for (var i = 0; i < V.length; i++) console.log(N[i] + ": " + updates(V[i]));
