let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  let s = Buffer.contents b in
  if s = "" then "_"
  else
    match s.[0] with
    | '0' .. '9' -> "_" ^ s
    | _ -> s

(* Every reserved word of IEEE 1364-2005 (Annex B). *)
let keywords =
  [ "always"; "and"; "assign"; "automatic"; "begin"; "buf"; "bufif0";
    "bufif1"; "case"; "casex"; "casez"; "cell"; "cmos"; "config";
    "deassign"; "default"; "defparam"; "design"; "disable"; "edge"; "else";
    "end"; "endcase"; "endconfig"; "endfunction"; "endgenerate";
    "endmodule"; "endprimitive"; "endspecify"; "endtable"; "endtask";
    "event"; "for"; "force"; "forever"; "fork"; "function"; "generate";
    "genvar"; "highz0"; "highz1"; "if"; "ifnone"; "incdir"; "include";
    "initial"; "inout"; "input"; "instance"; "integer"; "join"; "large";
    "liblist"; "library"; "localparam"; "macromodule"; "medium"; "module";
    "nand"; "negedge"; "nmos"; "nor"; "noshowcancelled"; "not"; "notif0";
    "notif1"; "or"; "output"; "parameter"; "pmos"; "posedge"; "primitive";
    "pull0"; "pull1"; "pulldown"; "pullup"; "pulsestyle_ondetect";
    "pulsestyle_onevent"; "rcmos"; "real"; "realtime"; "reg"; "release";
    "repeat"; "rnmos"; "rpmos"; "rtran"; "rtranif0"; "rtranif1"; "scalared";
    "showcancelled"; "signed"; "small"; "specify"; "specparam"; "strong0";
    "strong1"; "supply0"; "supply1"; "table"; "task"; "time"; "tran";
    "tranif0"; "tranif1"; "tri"; "tri0"; "tri1"; "triand"; "trior";
    "trireg"; "unsigned"; "use"; "uwire"; "vectored"; "wait"; "wand";
    "weak0"; "weak1"; "while"; "wire"; "wor"; "xnor"; "xor" ]

type namer = {
  by_id : (int, string) Hashtbl.t;
  used : (string, unit) Hashtbl.t;
  input_ports : (string, string) Hashtbl.t;  (* declared name -> port *)
  output_ports : (string, string) Hashtbl.t; (* output name -> port *)
  ram_names : (int, string) Hashtbl.t;       (* ram id -> identifier *)
}

let unique n base =
  if not (Hashtbl.mem n.used base) then begin
    Hashtbl.add n.used base ();
    base
  end
  else
    let rec go i =
      let cand = Printf.sprintf "%s_%d" base i in
      if Hashtbl.mem n.used cand then go (i + 1)
      else begin
        Hashtbl.add n.used cand ();
        cand
      end
    in
    go 1

(* Port and ram identifiers are uniquified through the same [used] table as
   everything else, in a fixed order (inputs, outputs, rams), so signals
   whose sanitised names collide — or collide with a Verilog keyword — emit
   distinct, deterministic identifiers. *)
let make_namer circuit =
  let n =
    { by_id = Hashtbl.create 64;
      used = Hashtbl.create 64;
      input_ports = Hashtbl.create 16;
      output_ports = Hashtbl.create 16;
      ram_names = Hashtbl.create 8 }
  in
  List.iter (fun k -> Hashtbl.add n.used k ()) keywords;
  Hashtbl.add n.used "clock" ();
  List.iter
    (fun (name, _) ->
      Hashtbl.replace n.input_ports name (unique n (sanitize name)))
    (Circuit.inputs circuit);
  List.iter
    (fun (name, _) ->
      Hashtbl.replace n.output_ports name (unique n (sanitize name)))
    (Circuit.outputs circuit);
  List.iter
    (fun (ram : Signal.ram) ->
      Hashtbl.replace n.ram_names ram.Signal.ram_id
        (unique n (sanitize ram.Signal.ram_name)))
    (Circuit.rams circuit);
  n

let input_port n name =
  match Hashtbl.find_opt n.input_ports name with
  | Some p -> p
  | None -> sanitize name

let output_port n name =
  match Hashtbl.find_opt n.output_ports name with
  | Some p -> p
  | None -> sanitize name

let ram_name n (ram : Signal.ram) =
  match Hashtbl.find_opt n.ram_names ram.Signal.ram_id with
  | Some r -> r
  | None -> sanitize ram.Signal.ram_name

let node_name n (s : Signal.t) =
  match Hashtbl.find_opt n.by_id s.Signal.id with
  | Some name -> name
  | None ->
    let name =
      match s.Signal.node with
      | Signal.Input i -> input_port n i
      | _ -> (
        match s.Signal.name with
        | Some u -> unique n (sanitize u)
        | None -> unique n (Printf.sprintf "s%d" s.Signal.id))
    in
    Hashtbl.replace n.by_id s.Signal.id name;
    name

(* The digits of [v <= 0], most significant first; counting on the
   non-positive side covers [min_int]. *)
let rec add_digits buf v =
  if v <= -10 then add_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (v mod 10)))

(* The bytes of [string_of_int v], written without allocating. *)
let add_int buf v =
  if v < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf v
  end
  else add_digits buf (-v)

(* Text goes straight into [buf]: fixed pieces as strings, integers through
   [add_int].  The memory images are most of the bytes, so each memory's
   constant text around an entry's index and value is built once. *)
let emit buf circuit =
  let n = make_namer circuit in
  let str = Buffer.add_string buf and int = add_int buf in
  let id s = str (node_name n s) in
  (* "[w-1:0] ", or nothing for a single bit *)
  let width w = if w <> 1 then (str "["; int (w - 1); str ":0] ") in
  (* a value as its low 62 bits: Verilog has no negative sized literal,
     so a negative 62-bit value is written as its bit pattern *)
  let lit w v = int w; str "'d"; int (v land max_int) in
  let infix a op b = id a; str op; id b in
  let signed a = str "$signed("; id a; str ")" in
  let expr (s : Signal.t) =
    match s.Signal.node with
    | Signal.Input _ | Signal.Const _ | Signal.Reg _ -> assert false
    | Signal.Unop (Signal.Not, a) -> str "~"; id a
    | Signal.Binop (op, a, b) -> (
      match op with
      | Signal.Add -> infix a " + " b
      | Signal.Sub -> infix a " - " b
      | Signal.Mul -> infix a " * " b
      | Signal.And -> infix a " & " b
      | Signal.Or -> infix a " | " b
      | Signal.Xor -> infix a " ^ " b
      | Signal.Eq -> infix a " == " b
      | Signal.Ult -> infix a " < " b
      | Signal.Slt -> signed a; str " < "; signed b
      | Signal.Shl k -> id a; str " << "; int k
      | Signal.Shr k -> id a; str " >> "; int k
      | Signal.Sra k -> signed a; str " >>> "; int k)
    | Signal.Mux (c, a, b) -> infix c " ? " a; str " : "; id b
    | Signal.Concat (hi, lo) -> str "{"; infix hi ", " lo; str "}"
    | Signal.Repl (a, k) -> str "{"; int k; str "{"; id a; str "}}"
    | Signal.Select (a, hi, lo) ->
      id a; str "["; int hi;
      if hi <> lo then (str ":"; int lo);
      str "]"
    | Signal.Wire r -> (
      match !r with
      | Some d -> id d
      | None -> invalid_arg "Verilog: unassigned wire")
    | Signal.Ram_read (ram, addr) ->
      str (ram_name n ram); str "["; id addr; str "]"
  in
  let decl kw (s : Signal.t) = str kw; width s.Signal.width; id s; str " = " in
  let nodes = Circuit.nodes circuit in
  (* pre-assign names for all nodes so forward refs are stable *)
  Array.iter (fun s -> ignore (node_name n s)) nodes;
  let out_ports = Circuit.outputs circuit in
  str "module "; str (sanitize (Circuit.name circuit)); str "(\n  input clock";
  List.iter
    (fun (name, w) -> str ",\n  input "; width w; str (input_port n name))
    (Circuit.inputs circuit);
  List.iter
    (fun (name, (s : Signal.t)) ->
      str ",\n  output "; width s.Signal.width; str (output_port n name))
    out_ports;
  str "\n);\n\n";
  (* ram declarations *)
  List.iter
    (fun (ram : Signal.ram) ->
      let rname = ram_name n ram and w = ram.Signal.ram_width in
      str "  reg "; width w; str rname;
      str " [0:"; int (ram.Signal.size - 1); str "];\n  initial begin\n";
      let before_index = "    " ^ rname ^ "["
      and before_value = "] = " ^ string_of_int w ^ "'d" in
      Array.iteri
        (fun i v ->
          str before_index; int i; str before_value; int (v land max_int);
          str ";\n")
        ram.Signal.init_data;
      str "  end\n")
    (Circuit.rams circuit);
  (* combinational nodes and registers *)
  Array.iter
    (fun (s : Signal.t) ->
      match s.Signal.node with
      | Signal.Input _ -> ()
      | Signal.Const c -> decl "  wire " s; lit s.Signal.width c; str ";\n"
      | Signal.Reg r ->
        decl "  reg " s; lit s.Signal.width r.Signal.init; str ";\n"
      | _ -> decl "  wire " s; expr s; str ";\n")
    nodes;
  (* sequential block *)
  let regs =
    Array.to_list nodes
    |> List.filter_map (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Reg r -> Some (s, r)
        | _ -> None)
  in
  let ram_writes =
    List.filter_map
      (fun (ram : Signal.ram) ->
        Option.map (fun wp -> (ram, wp)) ram.Signal.write_port)
      (Circuit.rams circuit)
  in
  if regs <> [] || ram_writes <> [] then begin
    str "\n  always @(posedge clock) begin\n";
    List.iter
      (fun ((s : Signal.t), (r : Signal.reg)) ->
        str "    ";
        Option.iter
          (fun c ->
            str "if ("; id c; str ") "; id s; str " <= ";
            lit s.Signal.width r.Signal.clear_to; str "; else ")
          r.Signal.clear;
        Option.iter (fun e -> str "if ("; id e; str ") ") r.Signal.enable;
        infix s " <= " r.Signal.d; str ";\n")
      regs;
    List.iter
      (fun ((ram : Signal.ram), (wp : Signal.write_port)) ->
        str "    if ("; id wp.Signal.we; str ") ";
        str (ram_name n ram); str "["; id wp.Signal.waddr; str "] <= ";
        id wp.Signal.wdata; str ";\n")
      ram_writes;
    str "  end\n"
  end;
  str "\n";
  List.iter
    (fun (name, s) ->
      str "  assign "; str (output_port n name); str " = "; id s; str ";\n")
    out_ports;
  str "endmodule\n"

let to_string circuit =
  let buf = Buffer.create 4096 in
  emit buf circuit;
  Buffer.contents buf
