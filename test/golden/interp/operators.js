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

// Each operator with a literal on either side: the number 2 and the
// string "2" on the left and on the right of every operand.
var LIT = [
  ["+", function (v) { return v + 2; }, function (v) { return 2 + v; },
   function (v) { return v + "2"; }, function (v) { return "2" + v; }],
  ["-", function (v) { return v - 2; }, function (v) { return 2 - v; },
   function (v) { return v - "2"; }, function (v) { return "2" - v; }],
  ["*", function (v) { return v * 2; }, function (v) { return 2 * v; },
   function (v) { return v * "2"; }, function (v) { return "2" * v; }],
  ["/", function (v) { return v / 2; }, function (v) { return 2 / v; },
   function (v) { return v / "2"; }, function (v) { return "2" / v; }],
  ["%", function (v) { return v % 2; }, function (v) { return 2 % v; },
   function (v) { return v % "2"; }, function (v) { return "2" % v; }],
  ["==", function (v) { return v == 2; }, function (v) { return 2 == v; },
   function (v) { return v == "2"; }, function (v) { return "2" == v; }],
  ["!=", function (v) { return v != 2; }, function (v) { return 2 != v; },
   function (v) { return v != "2"; }, function (v) { return "2" != v; }],
  ["===", function (v) { return v === 2; }, function (v) { return 2 === v; },
   function (v) { return v === "2"; }, function (v) { return "2" === v; }],
  ["!==", function (v) { return v !== 2; }, function (v) { return 2 !== v; },
   function (v) { return v !== "2"; }, function (v) { return "2" !== v; }],
  ["<", function (v) { return v < 2; }, function (v) { return 2 < v; },
   function (v) { return v < "2"; }, function (v) { return "2" < v; }],
  ["<=", function (v) { return v <= 2; }, function (v) { return 2 <= v; },
   function (v) { return v <= "2"; }, function (v) { return "2" <= v; }],
  [">", function (v) { return v > 2; }, function (v) { return 2 > v; },
   function (v) { return v > "2"; }, function (v) { return "2" > v; }],
  [">=", function (v) { return v >= 2; }, function (v) { return 2 >= v; },
   function (v) { return v >= "2"; }, function (v) { return "2" >= v; }],
  ["&", function (v) { return v & 2; }, function (v) { return 2 & v; },
   function (v) { return v & "2"; }, function (v) { return "2" & v; }],
  ["|", function (v) { return v | 2; }, function (v) { return 2 | v; },
   function (v) { return v | "2"; }, function (v) { return "2" | v; }],
  ["^", function (v) { return v ^ 2; }, function (v) { return 2 ^ v; },
   function (v) { return v ^ "2"; }, function (v) { return "2" ^ v; }],
  ["<<", function (v) { return v << 2; }, function (v) { return 2 << v; },
   function (v) { return v << "2"; }, function (v) { return "2" << v; }],
  [">>", function (v) { return v >> 2; }, function (v) { return 2 >> v; },
   function (v) { return v >> "2"; }, function (v) { return "2" >> v; }],
  [">>>", function (v) { return v >>> 2; }, function (v) { return 2 >>> v; },
   function (v) { return v >>> "2"; }, function (v) { return "2" >>> v; }],
  ["instanceof", function (v) { return v instanceof 2; },
   function (v) { return 2 instanceof v; },
   function (v) { return v instanceof "2"; },
   function (v) { return "2" instanceof v; }],
  ["in", function (v) { return v in 2; }, function (v) { return 2 in v; },
   function (v) { return v in "2"; }, function (v) { return "2" in v; }]
];

function attempt(f, v) {
  try { return show(f(v)); } catch (e) { return "!" + e.name; }
}

for (var k = 0; k < LIT.length; k++) {
  for (var i = 0; i < V.length; i++) {
    var op = LIT[k][0];
    console.log("lit " + op + " " + N[i] + ": v" + op + "2 " +
                attempt(LIT[k][1], V[i]) + "; 2" + op + "v " +
                attempt(LIT[k][2], V[i]) + "; v" + op + "\"2\" " +
                attempt(LIT[k][3], V[i]) + "; \"2\"" + op + "v " +
                attempt(LIT[k][4], V[i]));
  }
}

// Unary operators, alone and under arithmetic.
for (var i = 0; i < V.length; i++) {
  var v = V[i];
  console.log("unary " + N[i] + ": -v " + attempt(function (x) { return -x; }, v) +
              "; +v " + attempt(function (x) { return +x; }, v) +
              "; ~v " + attempt(function (x) { return ~x; }, v) +
              "; !v " + attempt(function (x) { return !x; }, v) +
              "; -v*2 " + attempt(function (x) { return -x * 2; }, v) +
              "; 1-+v " + attempt(function (x) { return 1 - +x; }, v) +
              "; ~v+1 " + attempt(function (x) { return ~x + 1; }, v) +
              "; -(-v) " + attempt(function (x) { return -(-x); }, v));
}

// Nested arithmetic, with strings and objects among the operands.
var T = [[3, 2, 4], ["3", 2, 4], [3, "2", 4], ["a", 2, 4], [3, 2, "4"],
         [-0, 0, 1], [null, true, undefined], [{}, 1, 2], [1.5, -2.5, 0.5]];
for (var i = 0; i < T.length; i++) {
  var a = T[i][0], b = T[i][1], c = T[i][2];
  console.log("nested " + i + ": " +
              show((a - b) * (a + b)) + " " + show(a + b * c) + " " +
              show(a * b + c) + " " + show((a + b) + c) + " " +
              show(a + (b + c)) + " " + show(a - b - c) + " " +
              show((a - b) / (c % 3)) + " " + show(-(a * b) + c) + " " +
              show((a | 0) + (b << 1) - (c >>> 0)) + " " +
              show(a * b < c) + " " + show(a + b == c) + " " +
              show(a - b >= c * 0.5));
}

// Comparisons and logical operators as conditions of if, while and ?:.
function conds(a, b) {
  var out = "";
  if (a < b) out = out + "T"; else out = out + "F";
  if (a <= b) out = out + "T"; else out = out + "F";
  if (!(a > b)) out = out + "T"; else out = out + "F";
  if (a >= b && b) out = out + "T"; else out = out + "F";
  if (a == b || a) out = out + "T"; else out = out + "F";
  if (!a && !b) out = out + "T"; else out = out + "F";
  if (a === b || !(a !== b)) out = out + "T"; else out = out + "F";
  if (a) out = out + "T"; else out = out + "F";
  out = out + (a != b ? "T" : "F");
  out = out + (a && b ? "T" : "F");
  out = out + (a || b ? "T" : "F");
  out = out + (!a ? "T" : "F");
  out = out + (a - 1 < b ? "T" : "F");
  var n = 0;
  while (n < 3 && a <= b) n++;
  out = out + n;
  n = 0;
  while (!(n >= 2) || (a && n < 3)) n++;
  out = out + n;
  var r = a && b;
  out = out + " " + show(r) + " " + show(a || b) + " " + show(!b);
  return out;
}

for (var i = 0; i < V.length; i++) {
  var out = "cond " + N[i] + ":";
  for (var j = 0; j < V.length; j++) out = out + " " + conds(V[i], V[j]);
  console.log(out);
}

// Coercion order: every operand is evaluated before either is coerced,
// left operand first; toString side effects show the order.
var trail = "";
function tracked(tag, s) {
  return { toString: function () { trail = trail + tag; return s; } };
}
function order(label, f) {
  trail = "";
  var r;
  try { r = show(f()); } catch (e) { r = "!" + e.name; }
  console.log("order " + label + ": " + r + " " + trail);
}
order("a*b", function () {
  return (trail = trail + "1", tracked("a", "3")) * (trail = trail + "2", tracked("b", "4"));
});
order("a<b", function () {
  return (trail = trail + "1", tracked("a", "3")) < (trail = trail + "2", tracked("b", "4"));
});
order("a<b str", function () {
  return (trail = trail + "1", tracked("a", "x")) < (trail = trail + "2", tracked("b", "y"));
});
order("a-b", function () { return tracked("a", "7") - tracked("b", "2"); });
order("a+b", function () { return tracked("a", "7") + tracked("b", "2"); });
order("a*(b-c)", function () {
  return tracked("a", "2") * (tracked("b", "5") - tracked("c", "1"));
});
order("(a-b)*c", function () {
  return (tracked("a", "5") - tracked("b", "1")) * tracked("c", "2");
});
order("a+b*c", function () {
  return tracked("a", "1") + tracked("b", "2") * tracked("c", "3");
});
order("-a", function () { return -tracked("a", "4"); });
order("a|b", function () { return tracked("a", "6") | tracked("b", "1"); });
order("a>>>b", function () { return tracked("a", "-1") >>> tracked("b", "28"); });
order("a==b", function () { return tracked("a", "1") == tracked("b", "1"); });
order("a>=1", function () { return tracked("a", "1") >= 1; });
order("2%a", function () { return 2 % tracked("a", "3"); });
order("++o.p", function () { var o = { p: tracked("a", "8") }; return ++o.p; });
order("o.p*=b", function () {
  var o = { p: tracked("a", "8") }; o.p *= tracked("b", "2"); return o.p;
});
order("x-=b", function () {
  var x = tracked("a", "8"); x -= tracked("b", "2"); return x;
});
order("if(a<b)", function () {
  if (tracked("a", "1") < tracked("b", "2")) return "yes"; return "no";
});

// Odd index keys, on reads and writes.
var arr = [10, 20, 30];
arr[-0] = "neg0";
arr[1.5] = "frac";
arr["2"] = "str2";
console.log("keys: " + show(arr[-0]) + " " + show(arr[0]) + " " +
            show(arr[1.5]) + " " + show(arr["1"]) + " " + show(arr[1]) +
            " " + show(arr["2"]) + " " + show(arr[2]) + " " +
            show(arr.length) + " " + show(arr["length"]) + " " +
            show(arr[-1]) + " " + show(arr[3]) + " " + show("abc"[1]) +
            " " + show("abc"["1"]) + " " + show("abc"[1.5]) + " " +
            show("abc".length));
var holder = { length: "long" };
console.log("length: " + show(holder.length) + " " + show([].length) +
            " " + show(show.length) + " " + show("".length));

// Updates on string elements and string-valued compound assignment.
var sa = ["5", "x", "", "1.5"];
var r0 = sa[0]++, r1 = sa[1]++, r2 = ++sa[2], r3 = sa[3]--;
console.log("elem++: " + show(r0) + " " + show(sa[0]) + " " + show(r1) +
            " " + show(sa[1]) + " " + show(r2) + " " + show(sa[2]) + " " +
            show(r3) + " " + show(sa[3]));
var j = 1;
sa[j]--;
sa[j + 1] += "s";
console.log("elem op: " + show(sa[1]) + " " + show(sa[2]));
var op = { p: "q", n: 1 };
op.p += "s";
op.n += "s";
op.m += "s";
op.n -= 1;
var acc = "";
acc += 1;
acc += null;
console.log("prop op: " + show(op.p) + " " + show(op.n) + " " + show(op.m) +
            " " + show(acc));
