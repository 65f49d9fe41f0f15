(* Structural RTL DSL, circuit validation, cycle simulator, Verilog. *)

open Tensorlib
open Signal

let circuit_of outs = Circuit.create ~name:"t" ~outputs:outs

let test_const_masking () =
  let c = const ~width:4 (-1) in
  let s = Sim.create (circuit_of [ ("o", c) ]) in
  Sim.settle s;
  Alcotest.(check int) "masked" 15 (Sim.output s "o");
  Alcotest.(check int) "signed view" (-1) (Sim.output_signed s "o")

let test_arith_ops () =
  let a = input "a" 8 and b = input "b" 8 in
  let outs =
    [ ("add", a +: b); ("sub", a -: b); ("mul", a *: b); ("and_", a &: b);
      ("or_", a |: b); ("xor_", a ^: b); ("eq", eq a b); ("ult", ult a b);
      ("slt", slt a b); ("not_", not_ a) ]
  in
  let s = Sim.create (circuit_of outs) in
  Sim.set_input s "a" 200;
  Sim.set_input s "b" 100;
  Sim.settle s;
  Alcotest.(check int) "add wraps" ((200 + 100) land 255) (Sim.output s "add");
  Alcotest.(check int) "sub" 100 (Sim.output s "sub");
  Alcotest.(check int) "mul wraps" (200 * 100 land 255) (Sim.output s "mul");
  Alcotest.(check int) "and" (200 land 100) (Sim.output s "and_");
  Alcotest.(check int) "or" (200 lor 100) (Sim.output s "or_");
  Alcotest.(check int) "xor" (200 lxor 100) (Sim.output s "xor_");
  Alcotest.(check int) "eq" 0 (Sim.output s "eq");
  Alcotest.(check int) "ult 200<100" 0 (Sim.output s "ult");
  (* signed: 200 = -56 < 100 *)
  Alcotest.(check int) "slt" 1 (Sim.output s "slt");
  Alcotest.(check int) "not" (lnot 200 land 255) (Sim.output s "not_")

let test_width_mismatch () =
  let a = input "aa" 8 and b = input "bb" 4 in
  (try
     ignore (a +: b);
     Alcotest.fail "expected width mismatch"
   with Width_mismatch _ -> ())

let test_mux_select_concat () =
  let sel = input "sel" 1 and x = input "x" 8 in
  let hi = select x ~hi:7 ~lo:4 and lo = select x ~hi:3 ~lo:0 in
  let swapped = concat [ lo; hi ] in
  let m = mux2 sel swapped x in
  let s = Sim.create (circuit_of [ ("o", m); ("b", bit x 7) ]) in
  Sim.set_input s "x" 0xA5;
  Sim.set_input s "sel" 1;
  Sim.settle s;
  Alcotest.(check int) "swapped nibbles" 0x5A (Sim.output s "o");
  Alcotest.(check int) "msb" 1 (Sim.output s "b");
  Sim.set_input s "sel" 0;
  Sim.settle s;
  Alcotest.(check int) "pass through" 0xA5 (Sim.output s "o")

let test_resize () =
  let x = input "x" 4 in
  let s =
    Sim.create
      (circuit_of [ ("u", uresize x 8); ("sg", sresize x 8) ])
  in
  Sim.set_input s "x" 0b1010;
  Sim.settle s;
  Alcotest.(check int) "uresize" 0x0A (Sim.output s "u");
  Alcotest.(check int) "sresize" 0xFA (Sim.output s "sg")

let test_shifts () =
  let x = input "x" 8 in
  let s =
    Sim.create
      (circuit_of
         [ ("l", shift_left x 2); ("r", shift_right_l x 2);
           ("a", shift_right_a x 2) ])
  in
  Sim.set_input s "x" 0x90;
  Sim.settle s;
  Alcotest.(check int) "shl" 0x40 (Sim.output s "l");
  Alcotest.(check int) "shr" 0x24 (Sim.output s "r");
  Alcotest.(check int) "sra sign-fills" 0xE4 (Sim.output s "a")

let test_register_semantics () =
  let en = input "en" 1 and clr = input "clr" 1 and d = input "d" 8 in
  let q = reg ~enable:en ~clear:clr ~clear_to:7 ~init:3 d in
  let s = Sim.create (circuit_of [ ("q", q) ]) in
  Sim.settle s;
  Alcotest.(check int) "init" 3 (Sim.output s "q");
  Sim.set_input s "d" 42;
  Sim.set_input s "en" 0;
  Sim.cycle s;
  Sim.settle s;
  Alcotest.(check int) "enable off holds" 3 (Sim.output s "q");
  Sim.set_input s "en" 1;
  Sim.cycle s;
  Sim.settle s;
  Alcotest.(check int) "enable on loads" 42 (Sim.output s "q");
  Sim.set_input s "clr" 1;
  Sim.cycle s;
  Sim.settle s;
  Alcotest.(check int) "clear wins" 7 (Sim.output s "q")

let test_counter_feedback () =
  let w = wire 8 in
  let q = reg w in
  assign w (q +: const ~width:8 1);
  let s = Sim.create (circuit_of [ ("q", q) ]) in
  Sim.cycles s 10;
  Sim.settle s;
  Alcotest.(check int) "counts" 10 (Sim.output s "q")

let test_register_chain_order () =
  (* both registers must update from pre-edge values: a 2-stage delay *)
  let d = input "d" 8 in
  let r1 = reg d in
  let r2 = reg r1 in
  let s = Sim.create (circuit_of [ ("r2", r2) ]) in
  Sim.set_input s "d" 9;
  Sim.cycle s;
  Sim.settle s;
  Alcotest.(check int) "after 1 cycle" 0 (Sim.output s "r2");
  Sim.cycle s;
  Sim.settle s;
  Alcotest.(check int) "after 2 cycles" 9 (Sim.output s "r2")

let test_unassigned_wire () =
  let w = wire 4 in
  (try
     ignore (Circuit.create ~name:"bad" ~outputs:[ ("o", w) ]);
     Alcotest.fail "expected unassigned wire"
   with Circuit.Unassigned_wire _ -> ())

let test_comb_cycle_detection () =
  let w = wire 4 in
  assign w (w +: const ~width:4 1);
  (try
     ignore (Circuit.create ~name:"cyc" ~outputs:[ ("o", w) ]);
     Alcotest.fail "expected combinational cycle"
   with Circuit.Combinational_cycle _ -> ())

let test_reg_breaks_cycle () =
  let w = wire 4 in
  let q = reg w in
  assign w (q +: const ~width:4 1);
  ignore (Circuit.create ~name:"ok" ~outputs:[ ("o", q) ])

let test_rom () =
  let addr = input "addr" 4 in
  let r = rom ~width:8 [| 5; 6; 7; 8 |] in
  let s = Sim.create (circuit_of [ ("o", ram_read r addr) ]) in
  Sim.set_input s "addr" 2;
  Sim.settle s;
  Alcotest.(check int) "rom read" 7 (Sim.output s "o");
  Sim.set_input s "addr" 9;
  Sim.settle s;
  Alcotest.(check int) "out of range reads 0" 0 (Sim.output s "o")

let test_ram_write () =
  let we = input "we" 1 and addr = input "addr" 2 and d = input "d" 8 in
  let r = ram ~size:4 ~width:8 ~init:(Array.make 4 0) () in
  ram_write r ~we ~addr ~data:d;
  let s = Sim.create (circuit_of [ ("o", ram_read r addr) ]) in
  Sim.set_input s "we" 1;
  Sim.set_input s "addr" 3;
  Sim.set_input s "d" 99;
  Sim.cycle s;
  Sim.set_input s "we" 0;
  Sim.settle s;
  Alcotest.(check int) "written" 99 (Sim.output s "o");
  (* read-modify-write accumulate through async read *)
  let we2 = input "we2" 1 and a2 = input "a2" 2 in
  let r2 = ram ~size:4 ~width:8 ~init:(Array.make 4 0) () in
  let old = ram_read r2 a2 in
  ram_write r2 ~we:we2 ~addr:a2 ~data:(old +: const ~width:8 5);
  let s2 = Sim.create (circuit_of [ ("o", ram_read r2 a2) ]) in
  Sim.set_input s2 "we2" 1;
  Sim.set_input s2 "a2" 1;
  Sim.cycles s2 3;
  Sim.settle s2;
  Alcotest.(check int) "rmw accumulates" 15 (Sim.output s2 "o")

let test_sim_reset () =
  let w = wire 8 in
  let q = reg ~init:5 w in
  assign w (q +: const ~width:8 1);
  let s = Sim.create (circuit_of [ ("q", q) ]) in
  Sim.cycles s 3;
  Sim.reset s;
  Sim.settle s;
  Alcotest.(check int) "reset to init" 5 (Sim.output s "q");
  Alcotest.(check int) "clock reset" 0 (Sim.cycle_count s)

let test_stats () =
  let a = input "a" 8 and b = input "b" 8 in
  let q = reg (a +: b) in
  let c = Circuit.create ~name:"st" ~outputs:[ ("o", mux2 (eq a b) q (a *: b)) ] in
  let st = Circuit.stats c in
  Alcotest.(check int) "regs" 1 st.Circuit.regs;
  Alcotest.(check int) "reg bits" 8 st.Circuit.reg_bits;
  Alcotest.(check int) "adders" 1 st.Circuit.adders;
  Alcotest.(check int) "muls" 1 st.Circuit.multipliers;
  Alcotest.(check int) "muxes" 1 st.Circuit.muxes;
  Alcotest.(check int) "inputs" 2 st.Circuit.inputs

let test_input_width_conflict () =
  let a8 = input "dup" 8 and a4 = input "dup" 4 in
  (try
     ignore
       (Circuit.create ~name:"dup"
          ~outputs:[ ("x", a8); ("y", uresize a4 8) ]);
     Alcotest.fail "expected input width conflict"
   with Invalid_argument _ -> ())

let test_verilog_emission () =
  let a = input "a" 8 and b = input "b" 8 in
  let w = wire 8 in
  let q = reg ~enable:(eq a b) w -- "state" in
  assign w (q +: (a *: b));
  let r = rom ~name:"table" ~width:8 [| 1; 2; 3 |] in
  let c =
    Circuit.create ~name:"emit"
      ~outputs:[ ("out", q); ("lut", ram_read r (uresize (bit a 0) 2)) ]
  in
  let v = Verilog.to_string c in
  let has sub =
    let n = String.length sub and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (has "module emit(");
  Alcotest.(check bool) "clock port" true (has "input clock");
  Alcotest.(check bool) "named reg" true (has "reg [7:0] state");
  Alcotest.(check bool) "always block" true (has "always @(posedge clock)");
  (* "table" is a reserved word: the rom is renamed *)
  Alcotest.(check bool) "rom array" true (has "reg [7:0] table_1 [0:2]");
  Alcotest.(check bool) "output assign" true (has "assign out = ");
  Alcotest.(check bool) "endmodule" true (has "endmodule")

(* The whole emitted text of a circuit with every node constructor, all
   twelve binops, both select forms, the four register forms, 1-bit and
   wide declarations, a 19-digit constant, a rom and a written ram.  A
   negative 62-bit constant, register init or clear value, or rom image
   entry is emitted as its low 62 bits: -1 as all ones, [min_int] as 0,
   never as a [62'd-1] that no Verilog parser accepts. *)
let test_verilog_exact_text () =
  let a = input "a" 8 and b = input "b" 8 in
  let en = input "en" 1 and clr = input "clr" 1 and we = input "we" 1 in
  let ones = const ~width:62 ((1 lsl 62) - 1) -- "ones" in
  let minus_one = const ~width:62 (-1) -- "minus_one" in
  let lowest = const ~width:62 min_int -- "lowest" in
  let arith =
    [ a +: b; a -: b; a *: b; a &: b; a |: b; a ^: b;
      shift_left a 1; shift_right_l a 2; shift_right_a a 3 ]
    |> List.fold_left ( ^: ) (not_ a)
  in
  let flags = concat [ eq a b; ult a b; slt a b ] in
  let picked = mux2 (bit a 0) (select a ~hi:5 ~lo:2) (repl en 4) in
  let plain = reg arith and gated = reg ~enable:en b in
  let cleared = reg ~clear:clr ~clear_to:5 a in
  let w = wire 8 in
  let acc = reg ~enable:en ~clear:clr ~clear_to:3 ~init:7 w -- "acc" in
  assign w (acc +: plain);
  let lut = rom ~name:"lut" ~width:8 [| 10; 109; 255 |] in
  let mem = ram ~name:"mem" ~size:4 ~width:8 ~init:[| 0; 1; 2; 3 |] () in
  ram_write mem ~we ~addr:(select a ~hi:1 ~lo:0) ~data:gated;
  let wide = reg ~clear:clr ~clear_to:min_int ~init:(-1) ones -- "wide" in
  let image = rom ~name:"image" ~width:62 [| -1; min_int |] in
  let c =
    Circuit.create ~name:"exact"
      ~outputs:
        [ ("acc_out", acc); ("cleared", cleared); ("flags", flags);
          ("picked", picked); ("ones", ones);
          ("minus_one", minus_one); ("lowest", lowest);
          ("lut_q", ram_read lut (select b ~hi:1 ~lo:0));
          ("mem_q", ram_read mem (select b ~hi:1 ~lo:0));
          ("wide_q", wide); ("image_q", ram_read image (bit b 0)) ]
  in
  Alcotest.(check string) "emitted text"
    {|module exact(
  input clock,
  input [7:0] a,
  input [7:0] b,
  input clr,
  input en,
  input we,
  output [7:0] acc_out,
  output [7:0] cleared,
  output [2:0] flags,
  output [3:0] picked,
  output [61:0] ones,
  output [61:0] minus_one,
  output [61:0] lowest,
  output [7:0] lut_q,
  output [7:0] mem_q,
  output [61:0] wide_q,
  output [61:0] image_q
);

  reg [7:0] lut [0:2];
  initial begin
    lut[0] = 8'd10;
    lut[1] = 8'd109;
    lut[2] = 8'd255;
  end
  reg [7:0] mem [0:3];
  initial begin
    mem[0] = 8'd0;
    mem[1] = 8'd1;
    mem[2] = 8'd2;
    mem[3] = 8'd3;
  end
  reg [61:0] image [0:1];
  initial begin
    image[0] = 62'd4611686018427387903;
    image[1] = 62'd0;
  end
  wire [7:0] s0 = ~a;
  wire [7:0] s1 = a + b;
  wire [7:0] s2 = s0 ^ s1;
  wire [7:0] s3 = a - b;
  wire [7:0] s4 = s2 ^ s3;
  wire [7:0] s5 = a * b;
  wire [7:0] s6 = s4 ^ s5;
  wire [7:0] s7 = a & b;
  wire [7:0] s8 = s6 ^ s7;
  wire [7:0] s9 = a | b;
  wire [7:0] s10 = s8 ^ s9;
  wire [7:0] s11 = a ^ b;
  wire [7:0] s12 = s10 ^ s11;
  wire [7:0] s13 = a << 1;
  wire [7:0] s14 = s12 ^ s13;
  wire [7:0] s15 = a >> 2;
  wire [7:0] s16 = s14 ^ s15;
  wire [7:0] s17 = $signed(a) >>> 3;
  wire [7:0] s18 = s16 ^ s17;
  reg [7:0] s19 = 8'd0;
  reg [7:0] acc = 8'd7;
  wire [7:0] s20 = acc + s19;
  wire [7:0] s21 = s20;
  reg [7:0] s22 = 8'd0;
  wire s23 = a == b;
  wire s24 = a < b;
  wire [1:0] s25 = {s23, s24};
  wire s26 = $signed(a) < $signed(b);
  wire [2:0] s27 = {s25, s26};
  wire s28 = a[0];
  wire [3:0] s29 = a[5:2];
  wire [3:0] s30 = {4{en}};
  wire [3:0] s31 = s28 ? s29 : s30;
  wire [61:0] ones_1 = 62'd4611686018427387903;
  wire [61:0] minus_one_1 = 62'd4611686018427387903;
  wire [61:0] lowest_1 = 62'd0;
  wire [1:0] s32 = b[1:0];
  wire [7:0] s33 = lut[s32];
  wire [1:0] s34 = b[1:0];
  wire [1:0] s35 = a[1:0];
  reg [7:0] s36 = 8'd0;
  wire [7:0] s37 = mem[s34];
  reg [61:0] wide = 62'd4611686018427387903;
  wire s38 = b[0];
  wire [61:0] s39 = image[s38];

  always @(posedge clock) begin
    s19 <= s18;
    if (clr) acc <= 8'd3; else if (en) acc <= s21;
    if (clr) s22 <= 8'd5; else s22 <= a;
    if (en) s36 <= b;
    if (clr) wide <= 62'd0; else wide <= ones_1;
    if (we) mem[s35] <= s36;
  end

  assign acc_out = acc;
  assign cleared = s22;
  assign flags = s27;
  assign picked = s31;
  assign ones = ones_1;
  assign minus_one = minus_one_1;
  assign lowest = lowest_1;
  assign lut_q = s33;
  assign mem_q = s37;
  assign wide_q = wide;
  assign image_q = s39;
endmodule
|}
    (Netlist_text.normalize (Verilog.to_string c))

(* properties: simulator vs direct evaluation of random expression DAGs *)

type expr =
  | X
  | Y
  | K of int
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Mux of expr * expr * expr

let rec gen_expr depth =
  QCheck.Gen.(
    if depth = 0 then
      oneof [ return X; return Y; map (fun k -> K k) (int_range 0 255) ]
    else
      frequency
        [ (1, return X); (1, return Y);
          (2, map2 (fun a b -> Add (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (2, map2 (fun a b -> Sub (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (2, map2 (fun a b -> Mul (a, b)) (gen_expr (depth - 1)) (gen_expr (depth - 1)));
          (1,
           map3
             (fun a b c -> Mux (a, b, c))
             (gen_expr (depth - 1)) (gen_expr (depth - 1)) (gen_expr (depth - 1))) ])

let rec build_signal x y = function
  | X -> x
  | Y -> y
  | K k -> const ~width:8 k
  | Add (a, b) -> build_signal x y a +: build_signal x y b
  | Sub (a, b) -> build_signal x y a -: build_signal x y b
  | Mul (a, b) -> build_signal x y a *: build_signal x y b
  | Mux (c, a, b) ->
    mux2
      (bit (build_signal x y c) 0)
      (build_signal x y a) (build_signal x y b)

let rec eval_expr x y = function
  | X -> x
  | Y -> y
  | K k -> k
  | Add (a, b) -> (eval_expr x y a + eval_expr x y b) land 255
  | Sub (a, b) -> (eval_expr x y a - eval_expr x y b) land 255
  | Mul (a, b) -> eval_expr x y a * eval_expr x y b land 255
  | Mux (c, a, b) ->
    if eval_expr x y c land 1 <> 0 then eval_expr x y a else eval_expr x y b

let prop_sim_matches_eval =
  let arb =
    QCheck.make
      ~print:(fun _ -> "<expr>")
      QCheck.Gen.(triple (gen_expr 4) (int_range 0 255) (int_range 0 255))
  in
  QCheck.Test.make ~name:"netlist sim = direct evaluation" ~count:100 arb
    (fun (e, xv, yv) ->
      let x = input "x" 8 and y = input "y" 8 in
      let s = Sim.create (circuit_of [ ("o", build_signal x y e) ]) in
      (* constant-only expressions have no input ports *)
      (try Sim.set_input s "x" xv with Not_found -> ());
      (try Sim.set_input s "y" yv with Not_found -> ());
      Sim.settle s;
      Sim.output s "o" = eval_expr xv yv e)

let prop_signed_roundtrip =
  QCheck.Test.make ~name:"to_signed inverts mask" ~count:200
    QCheck.(pair (int_range 1 30) (int_range (-10000) 10000))
    (fun (w, v) ->
      let bound = 1 lsl (w - 1) in
      let v = ((v mod bound) + bound) mod bound - (bound / 2) in
      Signal.to_signed w (Signal.mask_to_width w v) = v)

let suite =
  [ Alcotest.test_case "const masking" `Quick test_const_masking;
    Alcotest.test_case "arithmetic ops" `Quick test_arith_ops;
    Alcotest.test_case "width mismatch" `Quick test_width_mismatch;
    Alcotest.test_case "mux/select/concat" `Quick test_mux_select_concat;
    Alcotest.test_case "resize" `Quick test_resize;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "register semantics" `Quick test_register_semantics;
    Alcotest.test_case "counter feedback" `Quick test_counter_feedback;
    Alcotest.test_case "register chain order" `Quick test_register_chain_order;
    Alcotest.test_case "unassigned wire" `Quick test_unassigned_wire;
    Alcotest.test_case "comb cycle detection" `Quick test_comb_cycle_detection;
    Alcotest.test_case "reg breaks cycle" `Quick test_reg_breaks_cycle;
    Alcotest.test_case "rom" `Quick test_rom;
    Alcotest.test_case "ram write + rmw" `Quick test_ram_write;
    Alcotest.test_case "sim reset" `Quick test_sim_reset;
    Alcotest.test_case "circuit stats" `Quick test_stats;
    Alcotest.test_case "input width conflict" `Quick test_input_width_conflict;
    Alcotest.test_case "verilog emission" `Quick test_verilog_emission;
    Alcotest.test_case "verilog exact text" `Quick test_verilog_exact_text ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_sim_matches_eval; prop_signed_roundtrip ]

(* ---------------- netlist optimisation ---------------- *)

let test_rewrite_folds_constants () =
  let a = const ~width:8 3 and b = const ~width:8 4 in
  let x = input "x" 8 in
  let e = (a *: b) +: (x *: const ~width:8 1) +: (x &: const ~width:8 0) in
  let c = circuit_of [ ("o", e) ] in
  let opt = Tensorlib.Rewrite.circuit c in
  let st = Circuit.stats opt in
  (* x*1 -> x, x&0 -> 0, 3*4 -> 12, +0 -> identity: one adder remains *)
  Alcotest.(check int) "muls gone" 0 st.Circuit.multipliers;
  Alcotest.(check int) "one adder" 1 st.Circuit.adders;
  let s = Sim.create opt in
  Sim.set_input s "x" 5;
  Sim.settle s;
  Alcotest.(check int) "value preserved" 17 (Sim.output s "o")

let test_rewrite_mux_collapse () =
  let x = input "x" 8 and y = input "y" 8 in
  let m1 = mux2 vdd x y in
  let m2 = mux2 gnd x y in
  let m3 = mux2 (bit x 0) y y in
  let c = circuit_of [ ("a", m1); ("b", m2); ("c", m3) ] in
  let opt = Tensorlib.Rewrite.circuit c in
  Alcotest.(check int) "all muxes gone" 0 (Circuit.stats opt).Circuit.muxes

let test_rewrite_preserves_registers () =
  let w = wire 8 in
  let q = reg ~init:2 w -- "ctr" in
  assign w (q +: const ~width:8 3);
  let c = circuit_of [ ("q", q) ] in
  let opt = Tensorlib.Rewrite.circuit c in
  let s0 = Sim.create c and s1 = Sim.create opt in
  Sim.cycles s0 5;
  Sim.cycles s1 5;
  Sim.settle s0;
  Sim.settle s1;
  Alcotest.(check int) "same behaviour" (Sim.output s0 "q")
    (Sim.output s1 "q")

let test_rewrite_accelerator_equivalent () =
  let open Tensorlib in
  let stmt = Workloads.gemm ~m:3 ~n:3 ~k:3 in
  let d = Search.find_design_exn stmt "MNK-SST" in
  let env = Exec.alloc_inputs stmt in
  let acc = Accel.generate ~rows:3 ~cols:3 d env in
  let before = acc.Accel.circuit in
  let opt, ram_map = Rewrite.circuit_with_ram_map before in
  let removed = Rewrite.count_removed ~before ~after:opt in
  Alcotest.(check bool) "never adds cells" true (removed >= 0);
  (* run both; compare every output bank's final contents *)
  let s0 = Sim.create before and s1 = Sim.create opt in
  Sim.cycles s0 (acc.Accel.total_cycles + 1);
  Sim.cycles s1 (acc.Accel.total_cycles + 1);
  List.iter
    (fun (name, bank) ->
      match List.assoc_opt bank ram_map with
      | None -> Alcotest.failf "bank %s not remapped" name
      | Some nb ->
        Alcotest.(check (array int)) name
          (Sim.ram_contents s0 bank)
          (Sim.ram_contents s1 nb))
    acc.Accel.banks

let prop_rewrite_equivalent =
  let arb =
    QCheck.make
      ~print:(fun _ -> "<expr>")
      QCheck.Gen.(triple (gen_expr 4) (int_range 0 255) (int_range 0 255))
  in
  QCheck.Test.make ~name:"optimised netlist = original" ~count:60 arb
    (fun (e, xv, yv) ->
      let x = input "x" 8 and y = input "y" 8 in
      let c = circuit_of [ ("o", build_signal x y e) ] in
      let opt = Tensorlib.Rewrite.circuit c in
      let run c =
        let s = Sim.create c in
        (try Sim.set_input s "x" xv with Not_found -> ());
        (try Sim.set_input s "y" yv with Not_found -> ());
        Sim.settle s;
        Sim.output s "o"
      in
      run c = run opt)

let suite =
  suite
  @ [ Alcotest.test_case "rewrite: constant folding" `Quick
        test_rewrite_folds_constants;
      Alcotest.test_case "rewrite: mux collapse" `Quick
        test_rewrite_mux_collapse;
      Alcotest.test_case "rewrite: registers preserved" `Quick
        test_rewrite_preserves_registers;
      Alcotest.test_case "rewrite: accelerator equivalence" `Quick
        test_rewrite_accelerator_equivalent;
      QCheck_alcotest.to_alcotest prop_rewrite_equivalent ]

(* ---------------- diagnostics content ---------------- *)

let contains hay sub =
  let n = String.length sub and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let test_unassigned_wire_message () =
  let x = input "x" 8 in
  let dangling = wire 8 in
  let stage = (x +: dangling) -- "adder_stage" in
  match Circuit.create ~name:"diag" ~outputs:[ ("result", stage) ] with
  | _ -> Alcotest.fail "expected unassigned wire"
  | exception Circuit.Unassigned_wire msg ->
    Alcotest.(check bool) "names the output" true (contains msg "\"result\"");
    Alcotest.(check bool) "names the nearest named signal" true
      (contains msg "nearest named signal adder_stage")

let test_comb_cycle_message () =
  let x = input "x" 8 and y = input "y" 8 in
  let w = wire 8 in
  let a = (w +: x) -- "stage_a" in
  let b = (a *: y) -- "stage_b" in
  assign w b;
  match Circuit.create ~name:"diag" ~outputs:[ ("o", b) ] with
  | _ -> Alcotest.fail "expected combinational cycle"
  | exception Circuit.Combinational_cycle msg ->
    Alcotest.(check bool) "full path: stage_a" true (contains msg "stage_a");
    Alcotest.(check bool) "full path: stage_b" true (contains msg "stage_b");
    let hops = String.split_on_char '>' msg in
    Alcotest.(check bool) "at least one hop" true (List.length hops >= 3);
    (* the path closes on the signal it started from *)
    let first = String.trim (List.hd hops) in
    let first = String.sub first 0 (String.length first - 2) in
    let last = String.trim (List.nth hops (List.length hops - 1)) in
    Alcotest.(check string) "cycle closes" first last

(* ---------------- rewrite properties ---------------- *)

let prop_rewrite_idempotent =
  let arb =
    QCheck.make ~print:(fun _ -> "<expr>") (gen_expr 4)
  in
  QCheck.Test.make ~name:"rewrite is idempotent and never adds cells"
    ~count:60 arb (fun e ->
      let x = input "x" 8 and y = input "y" 8 in
      let c = circuit_of [ ("o", build_signal x y e) ] in
      let opt = Tensorlib.Rewrite.circuit c in
      let opt2 = Tensorlib.Rewrite.circuit opt in
      Tensorlib.Rewrite.count_removed ~before:c ~after:opt >= 0
      && Tensorlib.Rewrite.count_removed ~before:opt ~after:opt2 = 0)

let rewritten_accel_equivalent stmt =
  let open Tensorlib in
  let _, d =
    match
      List.filter (fun (_, d) -> Design.netlist_supported d)
        (Search.all_designs stmt)
    with
    | [] -> Alcotest.fail "no supported design"
    | hd :: _ -> hd
  in
  List.iter
    (fun seed ->
      let env = Exec.alloc_inputs ~seed stmt in
      let acc = Accel.generate ~rows:8 ~cols:8 d env in
      let before = acc.Accel.circuit in
      let opt, ram_map = Rewrite.circuit_with_ram_map before in
      (* a second pass finds nothing left to remove *)
      Alcotest.(check int) "idempotent on accelerator" 0
        (Rewrite.count_removed ~before:opt ~after:(Rewrite.circuit opt));
      let s0 = Sim.create before and s1 = Sim.create opt in
      Sim.cycles s0 (acc.Accel.total_cycles + 1);
      Sim.cycles s1 (acc.Accel.total_cycles + 1);
      List.iter
        (fun (name, bank) ->
          match List.assoc_opt bank ram_map with
          | None -> Alcotest.failf "bank %s not remapped" name
          | Some nb ->
            Alcotest.(check (array int)) name
              (Sim.ram_contents s0 bank)
              (Sim.ram_contents s1 nb))
        acc.Accel.banks)
    [ 11; 23 ]

let test_rewrite_gemm_random_stimulus () =
  rewritten_accel_equivalent (Tensorlib.Workloads.gemm ~m:3 ~n:3 ~k:3)

let test_rewrite_mttkrp_random_stimulus () =
  rewritten_accel_equivalent
    (Tensorlib.Workloads.mttkrp ~i:3 ~j:3 ~k:3 ~l:3)

(* ---------------- verilog name handling ---------------- *)

let test_verilog_name_sanitisation () =
  (* keyword-named, space-separated and colliding identifiers, plus a
     signal fighting over the implicit clock port *)
  let kw = input "module" 8 in
  let sp = input "a b" 8 in
  let us = input "a_b" 8 in
  let ck = input "clock" 1 in
  let q = reg ~enable:ck (sp +: us) -- "begin" in
  let c =
    Circuit.create ~name:"names" ~outputs:[ ("end", q); ("a_b", kw) ]
  in
  let v = Verilog.to_string c in
  let has sub = contains v sub in
  (* inputs are allocated in sorted order: "a b", "a_b", "clock", "module" *)
  Alcotest.(check bool) "space sanitised" true (has "input [7:0] a_b,");
  Alcotest.(check bool) "collision suffixed" true (has "input [7:0] a_b_1");
  Alcotest.(check bool) "clock port stays clean" true (has "input clock,");
  Alcotest.(check bool) "clock collision renamed" true (has "input clock_1");
  Alcotest.(check bool) "keyword input renamed" true
    (has "input [7:0] module_1");
  Alcotest.(check bool) "keyword reg renamed" true (has "reg [7:0] begin_1");
  Alcotest.(check bool) "keyword output renamed" true
    (has "output [7:0] end_1");
  Alcotest.(check bool) "output collides with inputs" true
    (has "output [7:0] a_b_2");
  Alcotest.(check bool) "output assigns renamed ports" true
    (has "assign a_b_2 = module_1;");
  Alcotest.(check bool) "enable uses renamed clock" true (has "if (clock_1)");
  (* no raw keyword survives as an identifier *)
  Alcotest.(check bool) "no bare begin decl" false (has "reg [7:0] begin ");
  Alcotest.(check bool) "no bare module port" false (has "input [7:0] module,");
  (* emission is deterministic *)
  Alcotest.(check string) "deterministic" v (Verilog.to_string c)

let test_verilog_identifiers_unique () =
  (* every declared identifier in the emitted Verilog is unique *)
  let x = input "s1" 8 in
  let a = (x +: x) -- "dup" in
  let b = (x *: x) -- "dup" in
  let q = reg (a +: b) -- "s2" in
  let c = Circuit.create ~name:"uniq" ~outputs:[ ("dup", q) ] in
  let v = Verilog.to_string c in
  (* a declaration line is "<kw> [hi:lo] <ident> ..." with the width
     optional; collect every declared identifier *)
  let decl_ident line =
    let words =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun w -> w <> "")
    in
    match words with
    | kw :: rest when List.mem kw [ "wire"; "reg"; "input"; "output" ] ->
      let rest =
        match rest with
        | w :: tl when String.length w > 0 && w.[0] = '[' -> tl
        | _ -> rest
      in
      (match rest with
       | id :: _ ->
         Some
           (String.concat ""
              (String.split_on_char ','
                 (String.concat "" (String.split_on_char ';' id))))
       | [] -> None)
    | _ -> None
  in
  let names =
    List.filter_map decl_ident (String.split_on_char '\n' v)
    |> List.filter (fun s -> s <> "")
  in
  let sorted = List.sort compare names in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | _ -> true
  in
  Alcotest.(check bool) "identifiers unique" true (no_dup sorted);
  Alcotest.(check bool) "nonempty" true (List.length names > 3)

let suite =
  suite
  @ [ Alcotest.test_case "unassigned wire message" `Quick
        test_unassigned_wire_message;
      Alcotest.test_case "comb cycle message" `Quick test_comb_cycle_message;
      Alcotest.test_case "rewrite: gemm random stimulus" `Quick
        test_rewrite_gemm_random_stimulus;
      Alcotest.test_case "rewrite: mttkrp random stimulus" `Quick
        test_rewrite_mttkrp_random_stimulus;
      Alcotest.test_case "verilog name sanitisation" `Quick
        test_verilog_name_sanitisation;
      Alcotest.test_case "verilog identifiers unique" `Quick
        test_verilog_identifiers_unique;
      QCheck_alcotest.to_alcotest prop_rewrite_idempotent ]

let test_reset_keeps_constants () =
  (* the compiled schedule sets constants once; reset must preserve them *)
  let w = wire 8 in
  let q = reg w in
  assign w (q +: const ~width:8 3);
  let s = Sim.create (circuit_of [ ("q", q) ]) in
  Sim.cycles s 4;
  Sim.reset s;
  Sim.cycles s 2;
  Sim.settle s;
  Alcotest.(check int) "counts by 3 after reset" 6 (Sim.output s "q")

let suite =
  suite
  @ [ Alcotest.test_case "reset keeps constants" `Quick
        test_reset_keeps_constants ]
