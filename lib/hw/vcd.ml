type traced = {
  signal : Signal.t;
  slot : int;  (** canonical dense slot (post alias/CSE redirection) *)
  label : string;
  code : string;
  mutable last : int option;
}

type t = {
  sim : Sim.t;
  traced : traced list;
  buf : Buffer.t;
  mutable time : int;
  mutable header_done : bool;
}

(* VCD identifier codes: printable ASCII 33..126, shortest-first *)
let code_of_int n =
  let base = 94 in
  let rec go n acc =
    let c = Char.chr (33 + (n mod base)) in
    let acc = String.make 1 c ^ acc in
    if n < base then acc else go ((n / base) - 1) acc
  in
  go n ""

(* Mirror of the Verilog namer's sanitizer: the bank/schedule namers emit
   labels like "a_bank[0]:we" whose '[', ']', ':' (and leading digits)
   yield malformed $var references in strict viewers. *)
let sanitize label =
  let b = Buffer.create (String.length label) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    label;
  let s = Buffer.contents b in
  if s = "" then "_" else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s else s

let unique used base =
  if not (Hashtbl.mem used base) then begin
    Hashtbl.add used base ();
    base
  end
  else
    let rec go i =
      let cand = Printf.sprintf "%s_%d" base i in
      if Hashtbl.mem used cand then go (i + 1)
      else begin
        Hashtbl.add used cand ();
        cand
      end
    in
    go 1

let create ?signals sim circuit =
  (* one VCD stream cannot represent 62 interleaved trials *)
  if Sim.backend sim = `Batch then
    invalid_arg "Vcd.create: batch simulators are not supported";
  let chosen =
    match signals with
    | Some l -> List.map (fun s -> (s, None)) l
    | None ->
      let named =
        Array.to_list (Circuit.nodes circuit)
        |> List.filter_map (fun (s : Signal.t) ->
            match (s.Signal.node, s.Signal.name) with
            | Signal.Input n, _ -> Some (s, Some n)
            | _, Some n -> Some (s, Some n)
            | _, None -> None)
      in
      named
      @ List.map (fun (n, s) -> (s, Some n)) (Circuit.outputs circuit)
  in
  (* Dedupe by signal id, then resolve each signal through the
     simulator's canonical slot table: the tape compiler may have aliased
     or CSE-merged a wire onto another node's storage, and reading its
     resolved slot — not a stale pre-compilation index — is what keeps the
     dump correct (test_obs reads a dump of every node back against the
     reference interpreter).  Signals absent from the simulated circuit
     are dropped. *)
  let seen = Hashtbl.create 64 in
  let used = Hashtbl.create 64 in
  let traced =
    List.filter
      (fun ((s : Signal.t), _) ->
        if Hashtbl.mem seen s.Signal.id then false
        else begin
          Hashtbl.add seen s.Signal.id ();
          true
        end)
      chosen
    |> List.filter_map (fun ((s : Signal.t), label) ->
        match Sim.slot sim s with
        | None -> None
        | Some slot ->
          let label =
            match (label, s.Signal.name) with
            | Some l, _ -> l
            | None, Some l -> l
            | None, None -> Printf.sprintf "s%d" s.Signal.id
          in
          Some (s, slot, unique used (sanitize label)))
    |> List.mapi (fun i (s, slot, label) ->
        { signal = s; slot; label; code = code_of_int i; last = None })
  in
  { sim; traced; buf = Buffer.create 4096; time = 0; header_done = false }

let emit_header t =
  let b = t.buf in
  Buffer.add_string b "$date generated by tensorlib $end\n";
  Buffer.add_string b "$version tensorlib vcd $end\n";
  Buffer.add_string b "$timescale 1ns $end\n";
  Buffer.add_string b "$scope module top $end\n";
  List.iter
    (fun tr ->
      Buffer.add_string b
        (Printf.sprintf "$var wire %d %s %s $end\n" tr.signal.Signal.width
           tr.code tr.label))
    t.traced;
  Buffer.add_string b "$upscope $end\n$enddefinitions $end\n";
  t.header_done <- true

let bin_string width v =
  String.init width (fun i ->
      if (v lsr (width - 1 - i)) land 1 = 1 then '1' else '0')

let emit_value t tr v =
  if tr.signal.Signal.width = 1 then
    Buffer.add_string t.buf (Printf.sprintf "%d%s\n" v tr.code)
  else
    Buffer.add_string t.buf
      (Printf.sprintf "b%s %s\n" (bin_string tr.signal.Signal.width v) tr.code)

let record t =
  if not t.header_done then begin
    (* First record: full value dump, so signals that never change (e.g. a
       register holding its reset value for the whole run) are still
       visible in viewers. *)
    emit_header t;
    Buffer.add_string t.buf (Printf.sprintf "#%d\n" t.time);
    Buffer.add_string t.buf "$dumpvars\n";
    List.iter
      (fun tr ->
        let v = Sim.read_slot t.sim tr.slot in
        tr.last <- Some v;
        emit_value t tr v)
      t.traced;
    Buffer.add_string t.buf "$end\n"
  end
  else begin
    let changed =
      List.filter
        (fun tr ->
          let v = Sim.read_slot t.sim tr.slot in
          match tr.last with
          | Some old when old = v -> false
          | _ ->
            tr.last <- Some v;
            true)
        t.traced
    in
    if changed <> [] then begin
      Buffer.add_string t.buf (Printf.sprintf "#%d\n" t.time);
      List.iter (fun tr -> emit_value t tr (Option.get tr.last)) changed
    end
  end

let cycle t =
  Sim.settle t.sim;
  record t;
  Sim.cycle t.sim;
  t.time <- t.time + 1

let cycles t n =
  for _ = 1 to n do
    cycle t
  done

let contents t = Buffer.contents t.buf

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (contents t))
