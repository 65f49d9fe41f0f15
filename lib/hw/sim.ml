(* Two execution backends over one simulator state:

   - [`Tape] (default): the netlist is compiled at [create] time into a flat
     int-array instruction tape (opcode + dense operand indices + immediates)
     evaluated by a tight match loop.  The sequential phase is compiled too:
     register next-state and ram write ports are pre-resolved to dense
     indices, so [latch] performs zero hashing and zero allocation per cycle.

   - [`Batch]: a bit-sliced evaluator over the same compiled tape, packing
     up to 62 independent trials into the bit lanes of each native int.
     Width-1 slots are {e packed} (one int, bit [l] = lane [l]) so bitwise
     control logic executes once per batch; wider slots are {e word
     batched} (one int per lane) so arithmetic loops over lanes but pays
     the tape-decode cost once.  The representation is chosen per slot at
     compile time.

     On top of the static representation, word slots carry a dynamic
     {e uniformity} flag: while every lane of a slot holds the same value
     only lane 0 is maintained and each word instruction costs O(1), the
     same as a scalar tape step — so a batch of 62 trials that agree on
     most of the circuit (the fault-campaign case: lanes differ only in
     the injected fault's fan-out cone) costs barely more than one scalar
     pass.  A slot {e materializes} (lane 0 is replicated into the stale
     lanes and the flag drops) the first time divergence reaches it:
     per-lane stimuli, pokes, forces, or a diverged operand.

   Both are checked against a reference interpreter that shares none of
   this state (test/refsim.ml). *)

type backend = [ `Tape | `Batch ]

(* Compiled register: dense [values] indices, -1 for an absent control. *)
type creg = {
  self : int;
  d : int;
  en : int;
  clr : int;
  clear_to : int;
  rinit : int;
}

(* Compiled ram write port. [wcontents] aliases the array in [ram_state];
   [reset] refills that array in place so the alias stays valid. *)
type cwport = {
  we : int;
  waddr : int;
  wdata : int;
  wsize : int;
  wcontents : int array;
}

(* Compiled batch register.  Packed registers ([bp]) latch all lanes with
   a handful of bitwise ops; word registers loop over lanes.  Enables and
   clears are width-1 by construction, hence always packed slots. *)
type bcreg = {
  bp : bool;
  bself : int;  (** packed slot, or word base *)
  bd : int;
  bdp : bool;  (** d operand resolves to a packed slot (word regs only) *)
  ben : int;  (** packed slot, -1 when absent *)
  bclr : int;
  bct : int;  (** packed: clear_to broadcast over lanes; word: clear_to *)
}

type bwport2 = {
  bwe : int;  (** packed slot *)
  bwaddr : int;
  bwaddr_p : bool;
  bwdata : int;
  bwdata_p : bool;
  bwsize : int;
  bwram : int;  (** dense ram slot *)
}

(* Per-lane stuck-at force.  [fand]/[forr] hold one (and, or) mask pair
   per lane; for packed slots the single-bit masks are additionally kept
   pre-transposed in [fpand]/[fpor] so applying the force is two bitwise
   ops for all lanes. *)
type bforce = {
  fslot : int;  (** dense slot *)
  fpacked : bool;
  fbase : int;  (** word base (word slots only) *)
  fand : int array;
  forr : int array;
  mutable fpand : int;
  mutable fpor : int;
  mutable fwuni : bool;
      (** word slots: every lane carries the same mask pair, so a slot
          that is still lane-uniform can stay that way under the force *)
}

type batch = {
  lanes : int;
  lmask : int;  (** (1 lsl lanes) - 1 over the usable 62 bits *)
  brep : bool array;  (** dense slot → packed? *)
  bwbase : int array;  (** dense slot → word base, -1 for packed slots *)
  bcode : int array;  (** translated batch instruction tape *)
  pvals : int array;  (** packed slot values *)
  wvals : int array;  (** word slot values, [base + lane] *)
  wuni : Bytes.t;
      (** ['\001'] at a word base: all lanes equal, lane 0 holds the
          value, lanes 1.. are stale *)
  binputs : int array;  (** input slot values, [slot * lanes + lane] *)
  binuni : Bytes.t;
      (** ['\001'] at an input base: all lanes equal (every lane is kept
          valid for inputs, uniform or not) *)
  brams : int array array;  (** dense ram slot → contents, [addr*lanes+lane] *)
  bruni : bool array;
      (** per ram slot: all lanes equal, the lane-0 column holds the
          contents, other columns are stale *)
  bram_sizes : int array;
  bram_inits : int array array;
  bram_slot_of : (int, int) Hashtbl.t;  (** ram id → dense ram slot *)
  bcregs : bcreg array;
  bnext_p : int array;  (** latch scratch, one per register *)
  bnext_w : int array;  (** latch scratch, [reg * lanes + lane] *)
  bnext_u : Bytes.t;  (** latch scratch: word register next state uniform? *)
  bwports : bwport2 array;
  mutable bforces : bforce array;
  bpacked_insts : int;
  btotal_insts : int;
}

type t = {
  backend : backend;
  index_of : (int, int) Hashtbl.t;  (** signal id → dense index *)
  values : int array;
  (* compiled combinational phase *)
  code : int array;  (** instruction tape *)
  tape_rams : int array array;  (** dense ram slot → contents *)
  (* compiled sequential phase *)
  cregs : creg array;
  reg_next : int array;  (** latch scratch, one slot per register *)
  cwports : cwport array;
  (* state and cached lookups *)
  ram_state : (int, int array) Hashtbl.t;  (** ram id → contents *)
  writable_inits : (int array * int array) array;
      (** contents, init_data for every ram with a write port: the only
          rams [reset] must restore (plus any the testbench dirtied) *)
  ram_init_of : (int, int array) Hashtbl.t;  (** ram id → init_data *)
  dirty_rams : (int, unit) Hashtbl.t;
      (** read-only rams rewritten through {!load_ram_prefix} or
          {!poke_ram} *)
  input_slots : int array;
  input_slot_of : (string, int * int) Hashtbl.t;  (** name → slot, width *)
  out_slot_of : (string, int * int) Hashtbl.t;  (** name → dense idx, width *)
  init_image : int array;
      (** [values] as first constructed (constants, folded slots, register
          init values) — [reset] restores it with one copy *)
  mutable clock : int;
  mutable forces : (int * int * int) array;
      (** (register slot, and_mask, or_mask) stuck-at forces, re-applied
          around every settle/latch; empty in fault-free operation *)
  batch : batch option;  (** lane state ([`Batch] only) *)
}

let backend t = t.backend

(* Copy [n] ints from [src.(s)] to [dst.(d)] by a plain loop.  On OCaml 5
   [Array.blit] stores each element through [caml_modify] when [dst] is
   in the major heap, as the simulator's long-lived arrays are; a store
   into an [int array] needs no write barrier.  The two ranges must not
   overlap. *)
let blit_ints (src : int array) s (dst : int array) d n =
  if s < 0 || d < 0 || n < 0 || s > Array.length src - n
     || d > Array.length dst - n
  then invalid_arg "Sim.blit_ints";
  for i = 0 to n - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (s + i))
  done

(* [land]-able immediates: a full-width (62-bit) signal needs no masking,
   exactly like Signal.mask_to_width. *)
let mask_of w = if w >= 62 then -1 else (1 lsl w) - 1

(* Biased-comparison sign bit: (v lxor sign) orders like to_signed v.  Zero
   (the identity) for full-width signals, where to_signed is the identity. *)
let sign_of w = if w >= 62 then 0 else 1 lsl (w - 1)

(* ------------------------------------------------------------------ *)
(* Instruction tape.                                                   *)

let op_input = 0 (* dst slot *)
let op_not = 1 (* dst a mask *)
let op_add = 2 (* dst a b mask *)
let op_sub = 3 (* dst a b mask *)
let op_mul = 4 (* dst a b mask *)
let op_and = 5 (* dst a b *)
let op_or = 6 (* dst a b *)
let op_xor = 7 (* dst a b *)
let op_eq = 8 (* dst a b *)
let op_ult = 9 (* dst a b *)
let op_slt = 10 (* dst a b sign *)
let op_shl = 11 (* dst a n mask *)
let op_shr = 12 (* dst a n *)
let op_sra = 13 (* dst a n sign mask *)
let op_mux = 14 (* dst c x y *)
let op_concat = 15 (* dst hi lo lw mask *)
let op_repl = 16 (* dst a n aw mask *)
let op_select = 17 (* dst a lo mask *)
let op_copy = 18 (* dst d *)
let op_ramrd = 19 (* dst ram addr size *)

(* Immediate-operand variants, emitted when one operand is a compile-time
   constant: the constant rides in the tape (a sequential read) instead of
   costing a second random [values] load. *)
let op_addi = 20 (* dst a imm mask *)
let op_subi = 21 (* dst a imm mask : a - imm *)
let op_isub = 22 (* dst a imm mask : imm - a *)
let op_muli = 23 (* dst a imm mask *)
let op_andi = 24 (* dst a imm *)
let op_ori = 25 (* dst a imm *)
let op_xori = 26 (* dst a imm *)
let op_eqi = 27 (* dst a imm *)
let op_ulti = 28 (* dst a imm : a < imm *)
let op_iult = 29 (* dst a imm : imm < a *)
let op_slti = 30 (* dst a sign imm' : (a lxor sign) < imm' *)
let op_islt = 31 (* dst a sign imm' : imm' < (a lxor sign) *)
let op_mux_ix = 32 (* dst c imm y : c <> 0 ? imm : values.(y) *)
let op_mux_iy = 33 (* dst c x imm *)
let op_shl_ori = 34 (* dst a sh imm mask : ((a lsl sh) land mask) lor imm *)

(* words per scalar-tape instruction, shared by the CSE post-pass and
   the batch translator *)
let stride_of op =
  match op with
  | 0 | 18 -> 3
  | 1 | 5 | 6 | 7 | 8 | 9 | 12 | 24 | 25 | 26 | 27 | 28 | 29 -> 4
  | 13 | 15 | 16 | 34 -> 6
  | _ -> 5

let is_pow2 v = v > 0 && v land (v - 1) = 0

let log2 v =
  let k = ref 0 in
  let x = ref v in
  while !x > 1 do
    incr k;
    x := !x lsr 1
  done;
  !k

(* Compile the combinational nodes to the instruction tape, running a
   constant-folding / peephole pass as it goes:

   - a node whose operands are all compile-time constants is evaluated now
     and preloaded into [values] (returned in the folded list) — no
     instruction is emitted;
   - a node provably equal to one of its operands (wire, zero-extension,
     [x + 0], [x * 1], mux with constant select, ...) is {e aliased}: its
     entry in [index_of] is redirected to the operand's slot, so consumers
     and [peek] read the operand directly and no instruction is emitted;
   - a node with one constant operand uses an immediate-form opcode.

   Mutates [index_of] (alias redirection) — the caller must resolve
   registers, write ports and outputs through [index_of] {e after} this
   pass.  Width invariants relied on (enforced by {!Signal}): binop
   operands and result share one width; mux branches match the result
   width; widths never exceed 62. *)
let compile_tape nodes ~index_of ~slot_of_input ~ram_slot =
  let idx (s : Signal.t) = Hashtbl.find index_of s.Signal.id in
  let known : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let kv i = Hashtbl.find_opt known i in
  let folded = ref [] in
  let len = ref 0 in
  let buf = ref (Array.make 1024 0) in
  let push v =
    if !len = Array.length !buf then begin
      let bigger = Array.make (2 * !len) 0 in
      blit_ints !buf 0 bigger 0 !len;
      buf := bigger
    end;
    !buf.(!len) <- v;
    incr len
  in
  Array.iter
    (fun (s : Signal.t) ->
      let i = idx s in
      let w = s.Signal.width in
      let m = Signal.mask_to_width w in
      (* node evaluates to the constant [v]: preload, emit nothing *)
      let fold v =
        Hashtbl.replace known i v;
        folded := (i, v) :: !folded
      in
      (* node always equals the value in slot [j]: redirect reads *)
      let alias j =
        Hashtbl.replace index_of s.Signal.id j;
        match kv j with Some v -> Hashtbl.replace known i v | None -> ()
      in
      match s.Signal.node with
      | Signal.Const c -> Hashtbl.replace known i c (* preloaded by create *)
      | Signal.Reg _ -> ()
      | Signal.Input n -> push op_input; push i; push (slot_of_input n)
      | Signal.Unop (Signal.Not, a) -> (
        let ai = idx a in
        match kv ai with
        | Some v -> fold (m (lnot v))
        | None -> push op_not; push i; push ai; push (mask_of w))
      | Signal.Binop (op, a, b) -> (
        let aw = a.Signal.width in
        let ai = idx a and bi = idx b in
        let ka = kv ai and kb = kv bi in
        let emit2 o x imm = push o; push i; push x; push imm in
        let emit3 o x imm extra = push o; push i; push x; push imm; push extra
        in
        match op, ka, kb with
        (* --- both operands constant: evaluate at compile time --- *)
        | Signal.Add, Some va, Some vb -> fold (m (va + vb))
        | Signal.Sub, Some va, Some vb -> fold (m (va - vb))
        | Signal.Mul, Some va, Some vb -> fold (m (va * vb))
        | Signal.And, Some va, Some vb -> fold (va land vb)
        | Signal.Or, Some va, Some vb -> fold (va lor vb)
        | Signal.Xor, Some va, Some vb -> fold (va lxor vb)
        | Signal.Eq, Some va, Some vb -> fold (if va = vb then 1 else 0)
        | Signal.Ult, Some va, Some vb -> fold (if va < vb then 1 else 0)
        | Signal.Slt, Some va, Some vb ->
          fold
            (if Signal.to_signed aw va < Signal.to_signed aw vb then 1 else 0)
        | Signal.Shl n, Some va, _ -> fold (m (va lsl n))
        | Signal.Shr n, Some va, _ -> fold (va lsr n)
        | Signal.Sra n, Some va, _ -> fold (m (Signal.to_signed aw va asr n))
        (* --- identities (operand and result widths are equal) --- *)
        | Signal.Add, Some 0, None -> alias bi
        | Signal.Add, None, Some 0 -> alias ai
        | (Signal.Sub | Signal.Or | Signal.Xor), None, Some 0 -> alias ai
        | (Signal.Or | Signal.Xor), Some 0, None -> alias bi
        | Signal.Mul, Some 0, None | Signal.Mul, None, Some 0 -> fold 0
        | Signal.And, Some 0, None | Signal.And, None, Some 0 -> fold 0
        | Signal.Mul, Some 1, None -> alias bi
        | Signal.Mul, None, Some 1 -> alias ai
        | Signal.And, Some v, None when v = mask_of w -> alias bi
        | Signal.And, None, Some v when v = mask_of w -> alias ai
        | Signal.Ult, None, Some 0 -> fold 0 (* nothing is < 0 unsigned *)
        (* --- one constant operand: immediate form --- *)
        | Signal.Add, Some v, None -> emit3 op_addi bi v (mask_of w)
        | Signal.Add, None, Some v -> emit3 op_addi ai v (mask_of w)
        | Signal.Sub, None, Some v -> emit3 op_subi ai v (mask_of w)
        | Signal.Sub, Some v, None -> emit3 op_isub bi v (mask_of w)
        | Signal.Mul, Some v, None when is_pow2 v ->
          emit3 op_shl bi (log2 v) (mask_of w)
        | Signal.Mul, None, Some v when is_pow2 v ->
          emit3 op_shl ai (log2 v) (mask_of w)
        | Signal.Mul, Some v, None -> emit3 op_muli bi v (mask_of w)
        | Signal.Mul, None, Some v -> emit3 op_muli ai v (mask_of w)
        | Signal.And, Some v, None -> emit2 op_andi bi v
        | Signal.And, None, Some v -> emit2 op_andi ai v
        | Signal.Or, Some v, None -> emit2 op_ori bi v
        | Signal.Or, None, Some v -> emit2 op_ori ai v
        | Signal.Xor, Some v, None -> emit2 op_xori bi v
        | Signal.Xor, None, Some v -> emit2 op_xori ai v
        | Signal.Eq, Some v, None -> emit2 op_eqi bi v
        | Signal.Eq, None, Some v -> emit2 op_eqi ai v
        | Signal.Ult, None, Some v -> emit2 op_ulti ai v
        | Signal.Ult, Some v, None -> emit2 op_iult bi v
        | Signal.Slt, None, Some v ->
          let sg = sign_of aw in
          emit3 op_slti ai sg (v lxor sg)
        | Signal.Slt, Some v, None ->
          let sg = sign_of aw in
          emit3 op_islt bi sg (v lxor sg)
        (* --- general forms --- *)
        | Signal.Add, None, None ->
          push op_add; push i; push ai; push bi; push (mask_of w)
        | Signal.Sub, None, None ->
          push op_sub; push i; push ai; push bi; push (mask_of w)
        | Signal.Mul, None, None ->
          push op_mul; push i; push ai; push bi; push (mask_of w)
        | Signal.And, None, None -> push op_and; push i; push ai; push bi
        | Signal.Or, None, None -> push op_or; push i; push ai; push bi
        | Signal.Xor, None, None -> push op_xor; push i; push ai; push bi
        | Signal.Eq, None, None -> push op_eq; push i; push ai; push bi
        | Signal.Ult, None, None -> push op_ult; push i; push ai; push bi
        | Signal.Slt, None, None ->
          push op_slt; push i; push ai; push bi; push (sign_of aw)
        | Signal.Shl n, None, _ ->
          if n = 0 then alias ai
          else emit3 op_shl ai n (mask_of w)
        | Signal.Shr n, None, _ ->
          if n = 0 then alias ai else emit2 op_shr ai n
        | Signal.Sra n, None, _ ->
          if n = 0 then alias ai
          else begin
            push op_sra; push i; push ai; push n; push (sign_of aw);
            push (mask_of w)
          end)
      | Signal.Mux (c, x, y) -> (
        let ci = idx c and xi = idx x and yi = idx y in
        match kv ci with
        | Some vc -> alias (if vc <> 0 then xi else yi)
        | None -> (
          if xi = yi then alias xi
          else
            match kv xi, kv yi with
            | Some vx, Some vy when vx = vy -> fold vx
            | Some vx, _ ->
              push op_mux_ix; push i; push ci; push vx; push yi
            | None, Some vy ->
              push op_mux_iy; push i; push ci; push xi; push vy
            | None, None ->
              push op_mux; push i; push ci; push xi; push yi))
      | Signal.Concat (hi, lo) -> (
        let lw = lo.Signal.width in
        let hi_i = idx hi and lo_i = idx lo in
        match kv hi_i, kv lo_i with
        | Some vh, Some vl -> fold (m ((vh lsl lw) lor vl))
        | Some vh, None ->
          let imm = m (vh lsl lw) in
          if imm = 0 then alias lo_i (* zero-extension *)
          else begin push op_ori; push i; push lo_i; push imm end
        | None, Some vl ->
          push op_shl_ori; push i; push hi_i; push lw; push vl;
          push (mask_of w)
        | None, None ->
          push op_concat; push i; push hi_i; push lo_i; push lw;
          push (mask_of w))
      | Signal.Repl (a, n) -> (
        let ai = idx a in
        let aw = a.Signal.width in
        match kv ai with
        | Some v ->
          let acc = ref 0 in
          for _ = 1 to n do
            acc := (!acc lsl aw) lor v
          done;
          fold (m !acc)
        | None ->
          push op_repl; push i; push ai; push n; push aw; push (mask_of w))
      | Signal.Select (a, _, lo) -> (
        let ai = idx a in
        match kv ai with
        | Some v -> fold (m (v lsr lo))
        | None ->
          if lo = 0 && w = a.Signal.width then alias ai
          else begin
            push op_select; push i; push ai; push lo; push (mask_of w)
          end)
      | Signal.Wire r -> (
        match !r with
        | Some direct ->
          (* follow the wire chain to its non-wire driver and alias; a
             degenerate wire cycle falls back to an explicit copy *)
          let rec driver_of (n : Signal.t) seen =
            match n.Signal.node with
            | Signal.Wire { contents = Some d }
              when not (List.mem n.Signal.id seen) ->
              driver_of d (n.Signal.id :: seen)
            | _ -> n
          in
          let d = driver_of s [] in
          if d != s then alias (idx d)
          else begin push op_copy; push i; push (idx direct) end
        | None -> invalid_arg "Sim: unassigned wire")
      | Signal.Ram_read (ram, addr) ->
        push op_ramrd; push i; push (ram_slot ram.Signal.ram_id);
        push (idx addr); push ram.Signal.size)
    nodes;
  let code0 = Array.sub !buf 0 !len in
  (* Post-pass: common-subexpression elimination.  Every instruction runs
     on every settle, so two instructions with the same opcode, immediates
     and (remapped) value operands always hold equal results — the later
     one is dropped and its slot redirected to the earlier one's.  The
     tape's dst field is always at offset 1; [val_fields] lists which of
     the remaining fields are [values] indices (as opposed to immediates,
     input slots or ram slots). *)
  let val_fields op =
    match op with
    | 0 -> []
    | 14 -> [ 2; 3; 4 ]
    | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 15 -> [ 2; 3 ]
    | 19 -> [ 3 ]
    | 32 -> [ 2; 4 ]
    | 33 -> [ 2; 3 ]
    | _ -> [ 2 ]
  in
  let n_nodes = Array.length nodes in
  let remap = Array.init n_nodes (fun k -> k) in
  let seen = Hashtbl.create 256 in
  len := 0;
  let p = ref 0 in
  while !p < Array.length code0 do
    let op = code0.(!p) in
    let st = stride_of op in
    let inst = Array.sub code0 !p st in
    List.iter (fun f -> inst.(f) <- remap.(inst.(f))) (val_fields op);
    let key =
      op :: List.filteri (fun k _ -> k > 1) (Array.to_list inst)
    in
    (match Hashtbl.find_opt seen key with
    | Some prior -> remap.(inst.(1)) <- prior
    | None ->
      Hashtbl.add seen key inst.(1);
      Array.iter push inst);
    p := !p + st
  done;
  (* point aliased / eliminated nodes at the surviving slots *)
  let updates =
    Hashtbl.fold
      (fun id di acc -> if remap.(di) <> di then (id, remap.(di)) :: acc
        else acc)
      index_of []
  in
  List.iter (fun (id, di) -> Hashtbl.replace index_of id di) updates;
  (Array.sub !buf 0 !len, Array.of_list (List.rev !folded))

let exec_tape t =
  let code = t.code in
  let values = t.values in
  let slots = t.input_slots in
  let rams = t.tape_rams in
  let n = Array.length code in
  let pc = ref 0 in
  while !pc < n do
    let p = !pc in
    let d = Array.unsafe_get code (p + 1) in
    match Array.unsafe_get code p with
    | 0 (* input *) ->
      Array.unsafe_set values d
        (Array.unsafe_get slots (Array.unsafe_get code (p + 2)));
      pc := p + 3
    | 1 (* not *) ->
      Array.unsafe_set values d
        (lnot (Array.unsafe_get values (Array.unsafe_get code (p + 2)))
         land Array.unsafe_get code (p + 3));
      pc := p + 4
    | 2 (* add *) ->
      Array.unsafe_set values d
        ((Array.unsafe_get values (Array.unsafe_get code (p + 2))
          + Array.unsafe_get values (Array.unsafe_get code (p + 3)))
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 3 (* sub *) ->
      Array.unsafe_set values d
        ((Array.unsafe_get values (Array.unsafe_get code (p + 2))
          - Array.unsafe_get values (Array.unsafe_get code (p + 3)))
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 4 (* mul *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         * Array.unsafe_get values (Array.unsafe_get code (p + 3))
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 5 (* and *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         land Array.unsafe_get values (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 6 (* or *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         lor Array.unsafe_get values (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 7 (* xor *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         lxor Array.unsafe_get values (Array.unsafe_get code (p + 3)));
      pc := p + 4
    | 8 (* eq *) ->
      Array.unsafe_set values d
        (if
           Array.unsafe_get values (Array.unsafe_get code (p + 2))
           = Array.unsafe_get values (Array.unsafe_get code (p + 3))
         then 1
         else 0);
      pc := p + 4
    | 9 (* ult *) ->
      Array.unsafe_set values d
        (if
           Array.unsafe_get values (Array.unsafe_get code (p + 2))
           < Array.unsafe_get values (Array.unsafe_get code (p + 3))
         then 1
         else 0);
      pc := p + 4
    | 10 (* slt *) ->
      let s = Array.unsafe_get code (p + 4) in
      Array.unsafe_set values d
        (if
           Array.unsafe_get values (Array.unsafe_get code (p + 2)) lxor s
           < Array.unsafe_get values (Array.unsafe_get code (p + 3)) lxor s
         then 1
         else 0);
      pc := p + 5
    | 11 (* shl *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
           lsl Array.unsafe_get code (p + 3)
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 12 (* shr *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         lsr Array.unsafe_get code (p + 3));
      pc := p + 4
    | 13 (* sra *) ->
      let s = Array.unsafe_get code (p + 4) in
      Array.unsafe_set values d
        (((Array.unsafe_get values (Array.unsafe_get code (p + 2)) lxor s) - s)
           asr Array.unsafe_get code (p + 3)
         land Array.unsafe_get code (p + 5));
      pc := p + 6
    | 14 (* mux *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values
           (if Array.unsafe_get values (Array.unsafe_get code (p + 2)) <> 0
            then Array.unsafe_get code (p + 3)
            else Array.unsafe_get code (p + 4)));
      pc := p + 5
    | 15 (* concat *) ->
      Array.unsafe_set values d
        ((Array.unsafe_get values (Array.unsafe_get code (p + 2))
            lsl Array.unsafe_get code (p + 4)
          lor Array.unsafe_get values (Array.unsafe_get code (p + 3)))
         land Array.unsafe_get code (p + 5));
      pc := p + 6
    | 16 (* repl *) ->
      let v = Array.unsafe_get values (Array.unsafe_get code (p + 2)) in
      let times = Array.unsafe_get code (p + 3) in
      let aw = Array.unsafe_get code (p + 4) in
      let acc = ref 0 in
      for _ = 1 to times do
        acc := (!acc lsl aw) lor v
      done;
      Array.unsafe_set values d (!acc land Array.unsafe_get code (p + 5));
      pc := p + 6
    | 17 (* select *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
           lsr Array.unsafe_get code (p + 3)
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 18 (* copy *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2)));
      pc := p + 3
    | 19 (* ramrd *) ->
      let a = Array.unsafe_get values (Array.unsafe_get code (p + 3)) in
      Array.unsafe_set values d
        (if a < Array.unsafe_get code (p + 4) then
           (Array.unsafe_get rams (Array.unsafe_get code (p + 2))).(a)
         else 0);
      pc := p + 5
    | 20 (* addi *) ->
      Array.unsafe_set values d
        ((Array.unsafe_get values (Array.unsafe_get code (p + 2))
          + Array.unsafe_get code (p + 3))
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 21 (* subi *) ->
      Array.unsafe_set values d
        ((Array.unsafe_get values (Array.unsafe_get code (p + 2))
          - Array.unsafe_get code (p + 3))
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 22 (* isub *) ->
      Array.unsafe_set values d
        ((Array.unsafe_get code (p + 3)
          - Array.unsafe_get values (Array.unsafe_get code (p + 2)))
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 23 (* muli *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         * Array.unsafe_get code (p + 3)
         land Array.unsafe_get code (p + 4));
      pc := p + 5
    | 24 (* andi *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         land Array.unsafe_get code (p + 3));
      pc := p + 4
    | 25 (* ori *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         lor Array.unsafe_get code (p + 3));
      pc := p + 4
    | 26 (* xori *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
         lxor Array.unsafe_get code (p + 3));
      pc := p + 4
    | 27 (* eqi *) ->
      Array.unsafe_set values d
        (if
           Array.unsafe_get values (Array.unsafe_get code (p + 2))
           = Array.unsafe_get code (p + 3)
         then 1
         else 0);
      pc := p + 4
    | 28 (* ulti *) ->
      Array.unsafe_set values d
        (if
           Array.unsafe_get values (Array.unsafe_get code (p + 2))
           < Array.unsafe_get code (p + 3)
         then 1
         else 0);
      pc := p + 4
    | 29 (* iult *) ->
      Array.unsafe_set values d
        (if
           Array.unsafe_get code (p + 3)
           < Array.unsafe_get values (Array.unsafe_get code (p + 2))
         then 1
         else 0);
      pc := p + 4
    | 30 (* slti *) ->
      Array.unsafe_set values d
        (if
           Array.unsafe_get values (Array.unsafe_get code (p + 2))
           lxor Array.unsafe_get code (p + 3)
           < Array.unsafe_get code (p + 4)
         then 1
         else 0);
      pc := p + 5
    | 31 (* islt *) ->
      Array.unsafe_set values d
        (if
           Array.unsafe_get code (p + 4)
           < Array.unsafe_get values (Array.unsafe_get code (p + 2))
             lxor Array.unsafe_get code (p + 3)
         then 1
         else 0);
      pc := p + 5
    | 32 (* mux_ix *) ->
      Array.unsafe_set values d
        (if Array.unsafe_get values (Array.unsafe_get code (p + 2)) <> 0
         then Array.unsafe_get code (p + 3)
         else Array.unsafe_get values (Array.unsafe_get code (p + 4)));
      pc := p + 5
    | 33 (* mux_iy *) ->
      Array.unsafe_set values d
        (if Array.unsafe_get values (Array.unsafe_get code (p + 2)) <> 0
         then Array.unsafe_get values (Array.unsafe_get code (p + 3))
         else Array.unsafe_get code (p + 4));
      pc := p + 5
    | _ (* shl_ori *) ->
      Array.unsafe_set values d
        (Array.unsafe_get values (Array.unsafe_get code (p + 2))
           lsl Array.unsafe_get code (p + 3)
         land Array.unsafe_get code (p + 5)
         lor Array.unsafe_get code (p + 4));
      pc := p + 6
  done

(* ------------------------------------------------------------------ *)
(* Batch (bit-sliced) backend.                                         *)

let max_lanes = 62

let lane_mask_of lanes = if lanes >= max_lanes then max_int else (1 lsl lanes) - 1

(* Batch opcodes.  [bp_*] write a packed destination; [bw_*] write a word
   destination.  Word-context reads of packed slots go through scratch
   slots materialised by [bw_unpack] at translation time. *)
let bp_and = 0 (* d a b *)
let bp_or = 1 (* d a b *)
let bp_xor = 2 (* d a b *)
let bp_not = 3 (* d a *)
let bp_copy = 4 (* d a *)
let bp_andn = 5 (* d a b : ~a & b *)
let bp_orn = 6 (* d a b : ~a | b *)
let bp_xnor = 7 (* d a b *)
let bp_set0 = 8 (* d *)
let bp_set1 = 9 (* d *)
let bp_mux = 10 (* d c x y *)
let bp_eq_w = 11 (* d a b *)
let bp_ult_w = 12 (* d a b *)
let bp_slt_w = 13 (* d a b sign *)
let bp_eqi_w = 14 (* d a imm *)
let bp_ulti_w = 15 (* d a imm *)
let bp_iult_w = 16 (* d a imm *)
let bp_slti_w = 17 (* d a sign imm' *)
let bp_islt_w = 18 (* d a sign imm' *)
let bp_sel_w = 19 (* d a lo *)
let bp_ram = 20 (* d ram addr size *)
let bp_input = 21 (* d slotbase *)
let bw_not = 22 (* d a m *)
let bw_add = 23 (* d a b m *)
let bw_sub = 24 (* d a b m *)
let bw_mul = 25 (* d a b m *)
let bw_and = 26 (* d a b *)
let bw_or = 27 (* d a b *)
let bw_xor = 28 (* d a b *)
let bw_shl = 29 (* d a n m *)
let bw_shr = 30 (* d a n *)
let bw_sra = 31 (* d a n sign m *)
let bw_mux = 32 (* d c x y : c packed *)
let bw_mux_ix = 33 (* d c imm y : c packed *)
let bw_mux_iy = 34 (* d c x imm : c packed *)
let bw_concat = 35 (* d hi lo lw m *)
let bw_repl = 36 (* d a n aw m *)
let bw_sel = 37 (* d a lo m *)
let bw_copy = 38 (* d a *)
let bw_ram = 39 (* d ram addr size *)
let bw_input = 40 (* d slotbase *)
let bw_addi = 41 (* d a imm m *)
let bw_subi = 42 (* d a imm m *)
let bw_isub = 43 (* d a imm m *)
let bw_muli = 44 (* d a imm m *)
let bw_andi = 45 (* d a imm *)
let bw_ori = 46 (* d a imm *)
let bw_xori = 47 (* d a imm *)
let bw_shlori = 48 (* d a sh imm m *)
let bw_unpack = 49 (* d a : w.(d + l) <- bit l of p.(a) *)
let bw_set0 = 50 (* d *)
let bp_pack = 51 (* d a : bit l of p.(d) <- w.(a + l) land 1 *)

(* Translate the scalar instruction tape into the batch tape, choosing a
   lane representation per slot at compile time:

   - {e packed} (width-1 slots): all lanes in the bits of one int in
     [pvals] — bitwise control logic vectorizes for free;
   - {e word} (wider slots): one int per lane in [wvals] at
     [bwbase.(slot) + lane] — arithmetic loops over lanes but decodes the
     instruction once per batch.

   Representation mismatches are bridged by scratch slots emitted at an
   operand's first mismatched use: a word-context operand resolving to a
   packed slot (zero-extension aliasing points wide signals at width-1
   producers) reads a [bw_unpack] scratch; a packed-context operand
   resolving to a word slot (the CSE pass can merge a width-1 node into
   an equal-valued wider instruction's slot) reads a [bp_pack] scratch.
   The scalar tape is in topological order and each slot is written at
   most once per settle, so one conversion per settle stays fresh for
   all later consumers.  [latch_slots] lists the dense slots the
   sequential phase must read as packed (register enables/clears,
   1-bit register data, ram write enables); their conversions are
   guaranteed emitted even if no combinational instruction needs them.

   Returns
   [(bcode, rep, wbase, n_word_slots, n_packed_slots, pscratch,
     packed_insts, total_insts)] where [pscratch] maps a word slot to
   its packed scratch slot. *)
let translate_batch code ~widths ~lanes ~latch_slots =
  let n = Array.length widths in
  let rep = Array.map (fun w -> w = 1) widths in
  let wbase = Array.make (max 1 n) (-1) in
  let nword = ref 0 in
  Array.iteri
    (fun i packed ->
      if not packed then begin
        wbase.(i) <- !nword * lanes;
        incr nword
      end)
    rep;
  let len = ref 0 in
  let buf = ref (Array.make 1024 0) in
  let push v =
    if !len = Array.length !buf then begin
      let bigger = Array.make (2 * !len) 0 in
      blit_ints !buf 0 bigger 0 !len;
      buf := bigger
    end;
    !buf.(!len) <- v;
    incr len
  in
  let packed_insts = ref 0 and total_insts = ref 0 in
  let emit l =
    List.iter push l;
    incr total_insts
  in
  let emitp l =
    emit l;
    incr packed_insts
  in
  let scratch = Hashtbl.create 16 in
  let unpack i =
    match Hashtbl.find_opt scratch i with
    | Some base -> base
    | None ->
      let base = !nword * lanes in
      incr nword;
      Hashtbl.add scratch i base;
      emit [ bw_unpack; base; i ];
      base
  in
  (* word base of operand slot [i], unpacking packed slots on demand *)
  let wof i = if rep.(i) then unpack i else wbase.(i) in
  (* packed slot holding operand [i]'s value.  A width-1 node can land
     on a word slot when CSE merges it into an equal-valued wider
     instruction; the merged value is still 0/1, so packing bit 0 of
     each lane recovers it exactly. *)
  let npacked = ref (max 1 n) in
  let pscratch = Hashtbl.create 16 in
  let pof i =
    if rep.(i) then i
    else
      match Hashtbl.find_opt pscratch i with
      | Some s -> s
      | None ->
        let s = !npacked in
        incr npacked;
        Hashtbl.add pscratch i s;
        emit [ bp_pack; s; wbase.(i) ];
        s
  in
  let p = ref 0 in
  let code_len = Array.length code in
  while !p < code_len do
    let q = !p in
    let op = code.(q) in
    let d = code.(q + 1) in
    (match op with
    | 0 (* input *) ->
      let slot = code.(q + 2) in
      if rep.(d) then emitp [ bp_input; d; slot * lanes ]
      else emit [ bw_input; wbase.(d); slot * lanes ]
    | 1 (* not *) ->
      let a = code.(q + 2) in
      if rep.(d) then emitp [ bp_not; d; pof a ]
      else emit [ bw_not; wbase.(d); wof a; code.(q + 3) ]
    | 2 | 3 (* add, sub: mod 2 both reduce to xor *) ->
      let a = code.(q + 2) and b = code.(q + 3) in
      if rep.(d) then emitp [ bp_xor; d; pof a; pof b ]
      else
        emit
          [ (if op = 2 then bw_add else bw_sub); wbase.(d); wof a; wof b;
            code.(q + 4) ]
    | 4 (* mul: mod 2 reduces to and *) ->
      let a = code.(q + 2) and b = code.(q + 3) in
      if rep.(d) then emitp [ bp_and; d; pof a; pof b ]
      else emit [ bw_mul; wbase.(d); wof a; wof b; code.(q + 4) ]
    | 5 (* and *) ->
      let a = code.(q + 2) and b = code.(q + 3) in
      if rep.(d) then emitp [ bp_and; d; pof a; pof b ]
      else emit [ bw_and; wbase.(d); wof a; wof b ]
    | 6 (* or *) ->
      let a = code.(q + 2) and b = code.(q + 3) in
      if rep.(d) then emitp [ bp_or; d; pof a; pof b ]
      else emit [ bw_or; wbase.(d); wof a; wof b ]
    | 7 (* xor *) ->
      let a = code.(q + 2) and b = code.(q + 3) in
      if rep.(d) then emitp [ bp_xor; d; pof a; pof b ]
      else emit [ bw_xor; wbase.(d); wof a; wof b ]
    | 8 (* eq *) ->
      let a = code.(q + 2) and b = code.(q + 3) in
      if rep.(a) && rep.(b) then emitp [ bp_xnor; d; a; b ]
      else emit [ bp_eq_w; d; wof a; wof b ]
    | 9 (* ult *) ->
      let a = code.(q + 2) and b = code.(q + 3) in
      if rep.(a) && rep.(b) then emitp [ bp_andn; d; a; b ]
      else emit [ bp_ult_w; d; wof a; wof b ]
    | 10 (* slt *) ->
      let a = code.(q + 2) and b = code.(q + 3) in
      let sign = code.(q + 4) in
      if rep.(a) && rep.(b) then
        (* 1-bit signed: 1 reads as -1, so a < b iff a=1 and b=0; wider
           packed operands hold 0/1, both non-negative, so a < b iff a=0
           and b=1 *)
        if sign = 1 then emitp [ bp_andn; d; b; a ]
        else emitp [ bp_andn; d; a; b ]
      else emit [ bp_slt_w; d; wof a; wof b; sign ]
    | 11 (* shl: a 1-bit value shifted left is 0 (n >= 1 here) *) ->
      if rep.(d) then emitp [ bp_set0; d ]
      else emit [ bw_shl; wbase.(d); wof (code.(q + 2)); code.(q + 3);
                  code.(q + 4) ]
    | 12 (* shr *) ->
      if rep.(d) then emitp [ bp_set0; d ]
      else emit [ bw_shr; wbase.(d); wof (code.(q + 2)); code.(q + 3) ]
    | 13 (* sra: on one bit the sign replicates into itself *) ->
      let a = code.(q + 2) in
      if rep.(d) then emitp [ bp_copy; d; pof a ]
      else
        emit
          [ bw_sra; wbase.(d); wof a; code.(q + 3); code.(q + 4);
            code.(q + 5) ]
    | 14 (* mux: the select is width-1, hence packed (via [pof]) *) ->
      let c = code.(q + 2) and x = code.(q + 3) and y = code.(q + 4) in
      if rep.(d) then emitp [ bp_mux; d; pof c; pof x; pof y ]
      else emit [ bw_mux; wbase.(d); pof c; wof x; wof y ]
    | 15 (* concat: destination is always at least 2 bits wide *) ->
      emit
        [ bw_concat; wbase.(d); wof (code.(q + 2)); wof (code.(q + 3));
          code.(q + 4); code.(q + 5) ]
    | 16 (* repl: a width-1 destination means n = 1, aw = 1 *) ->
      let a = code.(q + 2) in
      if rep.(d) then emitp [ bp_copy; d; pof a ]
      else
        emit
          [ bw_repl; wbase.(d); wof a; code.(q + 3); code.(q + 4);
            code.(q + 5) ]
    | 17 (* select *) ->
      let a = code.(q + 2) and lo = code.(q + 3) in
      if rep.(d) then
        if rep.(a) then
          (* packed operand holds 0/1: bit 0 is the value, higher bits 0 *)
          if lo = 0 then emitp [ bp_copy; d; a ] else emitp [ bp_set0; d ]
        else emit [ bp_sel_w; d; wbase.(a); lo ]
      else if rep.(a) then
        if lo = 0 then emit [ bw_unpack; wbase.(d); a ]
        else emit [ bw_set0; wbase.(d) ]
      else emit [ bw_sel; wbase.(d); wbase.(a); lo; code.(q + 4) ]
    | 18 (* copy: source and destination widths match *) ->
      let a = code.(q + 2) in
      if rep.(d) then emitp [ bp_copy; d; pof a ]
      else emit [ bw_copy; wbase.(d); wof a ]
    | 19 (* ramrd *) ->
      let ram = code.(q + 2) and addr = code.(q + 3) and size = code.(q + 4) in
      if rep.(d) then emit [ bp_ram; d; ram; wof addr; size ]
      else emit [ bw_ram; wbase.(d); ram; wof addr; size ]
    | 20 | 21 (* addi, subi: width-1 immediate is 1 (0 was aliased) *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(d) then
        if imm land 1 = 1 then emitp [ bp_not; d; pof a ]
        else emitp [ bp_copy; d; pof a ]
      else
        emit
          [ (if op = 20 then bw_addi else bw_subi); wbase.(d); wof a; imm;
            code.(q + 4) ]
    | 22 (* isub: (imm - a) land 1 *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(d) then
        if imm land 1 = 1 then emitp [ bp_not; d; pof a ]
        else emitp [ bp_copy; d; pof a ]
      else emit [ bw_isub; wbase.(d); wof a; imm; code.(q + 4) ]
    | 23 (* muli *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(d) then
        if imm land 1 = 1 then emitp [ bp_copy; d; pof a ]
        else emitp [ bp_set0; d ]
      else emit [ bw_muli; wbase.(d); wof a; imm; code.(q + 4) ]
    | 24 (* andi *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(d) then
        if imm land 1 = 1 then emitp [ bp_copy; d; pof a ]
        else emitp [ bp_set0; d ]
      else emit [ bw_andi; wbase.(d); wof a; imm ]
    | 25 (* ori *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(d) then
        if imm land 1 = 1 then emitp [ bp_set1; d ]
        else emitp [ bp_copy; d; pof a ]
      else emit [ bw_ori; wbase.(d); wof a; imm ]
    | 26 (* xori *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(d) then
        if imm land 1 = 1 then emitp [ bp_not; d; pof a ]
        else emitp [ bp_copy; d; pof a ]
      else emit [ bw_xori; wbase.(d); wof a; imm ]
    | 27 (* eqi: a packed operand holds 0/1 so the compare folds *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(a) then
        if imm = 1 then emitp [ bp_copy; d; a ]
        else if imm = 0 then emitp [ bp_not; d; a ]
        else emitp [ bp_set0; d ]
      else emit [ bp_eqi_w; d; wbase.(a); imm ]
    | 28 (* ulti *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(a) then
        if imm = 0 then emitp [ bp_set0; d ]
        else if imm = 1 then emitp [ bp_not; d; a ]
        else emitp [ bp_set1; d ]
      else emit [ bp_ulti_w; d; wbase.(a); imm ]
    | 29 (* iult *) ->
      let a = code.(q + 2) and imm = code.(q + 3) in
      if rep.(a) then
        if imm = 0 then emitp [ bp_copy; d; a ] else emitp [ bp_set0; d ]
      else emit [ bp_iult_w; d; wbase.(a); imm ]
    | 30 (* slti *) ->
      let a = code.(q + 2) and sign = code.(q + 3) and imm = code.(q + 4) in
      if rep.(a) && sign = 1 then
        if imm = 1 then emitp [ bp_copy; d; a ] else emitp [ bp_set0; d ]
      else emit [ bp_slti_w; d; wof a; sign; imm ]
    | 31 (* islt *) ->
      let a = code.(q + 2) and sign = code.(q + 3) and imm = code.(q + 4) in
      if rep.(a) && sign = 1 then
        if imm = 0 then emitp [ bp_not; d; a ] else emitp [ bp_set0; d ]
      else emit [ bp_islt_w; d; wof a; sign; imm ]
    | 32 (* mux_ix: c ? imm : y *) ->
      let c = code.(q + 2) and imm = code.(q + 3) and y = code.(q + 4) in
      if rep.(d) then
        if imm land 1 = 1 then emitp [ bp_or; d; pof c; pof y ]
        else emitp [ bp_andn; d; pof c; pof y ]
      else emit [ bw_mux_ix; wbase.(d); pof c; imm; wof y ]
    | 33 (* mux_iy: c ? x : imm *) ->
      let c = code.(q + 2) and x = code.(q + 3) and imm = code.(q + 4) in
      if rep.(d) then
        if imm land 1 = 1 then emitp [ bp_orn; d; pof c; pof x ]
        else emitp [ bp_and; d; pof c; pof x ]
      else emit [ bw_mux_iy; wbase.(d); pof c; wof x; imm ]
    | _ (* shl_ori: concat destination, always wider than 1 bit *) ->
      emit
        [ bw_shlori; wbase.(d); wof (code.(q + 2)); code.(q + 3);
          code.(q + 4); code.(q + 5) ]);
    p := q + stride_of op
  done;
  (* the sequential phase reads these as packed after every settle, so
     make sure each has a packed resolution in the tape *)
  List.iter (fun i -> if i >= 0 then ignore (pof i)) latch_slots;
  ( Array.sub !buf 0 !len, rep, wbase, !nword, !npacked, pscratch,
    !packed_insts, !total_insts )

let exec_batch b =
  let code = b.bcode in
  let p = b.pvals in
  let w = b.wvals in
  let u = b.wuni in
  let ins = b.binputs in
  let inu = b.binuni in
  let rams = b.brams in
  let runi = b.bruni in
  let l = b.lanes in
  let lm = b.lmask in
  (* Demote a uniform word slot: replicate lane 0 into the stale lanes so
     the per-lane path below can read every lane.  Slow path only, and at
     most once per slot per settle. *)
  let mat base =
    if Bytes.unsafe_get u base = '\001' then begin
      Array.fill w (base + 1) (l - 1) (Array.unsafe_get w base);
      Bytes.unsafe_set u base '\000'
    end
  in
  (* Convergence detection: a per-lane op just wrote all lanes of [d] —
     if they came out equal the slot is uniform again.  Fault effects
     mask out constantly (AND with zero, mux select away, saturation), so
     without this check one transient upset would diverge its whole
     fan-out cone for the rest of the run. *)
  let setu d =
    let v0 = Array.unsafe_get w d in
    let rec go k =
      k >= l || (Array.unsafe_get w (d + k) = v0 && go (k + 1))
    in
    Bytes.unsafe_set u d (if go 1 then '\001' else '\000')
  in
  let n = Array.length code in
  let pc = ref 0 in
  while !pc < n do
    let q = !pc in
    let d = Array.unsafe_get code (q + 1) in
    match Array.unsafe_get code q with
    | 0 (* bp_and *) ->
      Array.unsafe_set p d
        (Array.unsafe_get p (Array.unsafe_get code (q + 2))
         land Array.unsafe_get p (Array.unsafe_get code (q + 3)));
      pc := q + 4
    | 1 (* bp_or *) ->
      Array.unsafe_set p d
        (Array.unsafe_get p (Array.unsafe_get code (q + 2))
         lor Array.unsafe_get p (Array.unsafe_get code (q + 3)));
      pc := q + 4
    | 2 (* bp_xor *) ->
      Array.unsafe_set p d
        (Array.unsafe_get p (Array.unsafe_get code (q + 2))
         lxor Array.unsafe_get p (Array.unsafe_get code (q + 3)));
      pc := q + 4
    | 3 (* bp_not *) ->
      Array.unsafe_set p d
        (lnot (Array.unsafe_get p (Array.unsafe_get code (q + 2))) land lm);
      pc := q + 3
    | 4 (* bp_copy *) ->
      Array.unsafe_set p d (Array.unsafe_get p (Array.unsafe_get code (q + 2)));
      pc := q + 3
    | 5 (* bp_andn *) ->
      Array.unsafe_set p d
        (lnot (Array.unsafe_get p (Array.unsafe_get code (q + 2)))
         land Array.unsafe_get p (Array.unsafe_get code (q + 3)));
      pc := q + 4
    | 6 (* bp_orn *) ->
      Array.unsafe_set p d
        ((lnot (Array.unsafe_get p (Array.unsafe_get code (q + 2)))
          lor Array.unsafe_get p (Array.unsafe_get code (q + 3)))
         land lm);
      pc := q + 4
    | 7 (* bp_xnor *) ->
      Array.unsafe_set p d
        (lnot
           (Array.unsafe_get p (Array.unsafe_get code (q + 2))
            lxor Array.unsafe_get p (Array.unsafe_get code (q + 3)))
         land lm);
      pc := q + 4
    | 8 (* bp_set0 *) ->
      Array.unsafe_set p d 0;
      pc := q + 2
    | 9 (* bp_set1 *) ->
      Array.unsafe_set p d lm;
      pc := q + 2
    | 10 (* bp_mux *) ->
      let c = Array.unsafe_get p (Array.unsafe_get code (q + 2)) in
      Array.unsafe_set p d
        (c land Array.unsafe_get p (Array.unsafe_get code (q + 3))
         lor (lnot c land Array.unsafe_get p (Array.unsafe_get code (q + 4))));
      pc := q + 5
    | 11 (* bp_eq_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then
        Array.unsafe_set p d
          (if Array.unsafe_get w a = Array.unsafe_get w b' then lm else 0)
      else begin
        mat a;
        mat b';
        let acc = ref 0 in
        for k = 0 to l - 1 do
          if Array.unsafe_get w (a + k) = Array.unsafe_get w (b' + k) then
            acc := !acc lor (1 lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 4
    | 12 (* bp_ult_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then
        Array.unsafe_set p d
          (if Array.unsafe_get w a < Array.unsafe_get w b' then lm else 0)
      else begin
        mat a;
        mat b';
        let acc = ref 0 in
        for k = 0 to l - 1 do
          if Array.unsafe_get w (a + k) < Array.unsafe_get w (b' + k) then
            acc := !acc lor (1 lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 4
    | 13 (* bp_slt_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      let s = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then
        Array.unsafe_set p d
          (if Array.unsafe_get w a lxor s < Array.unsafe_get w b' lxor s
           then lm
           else 0)
      else begin
        mat a;
        mat b';
        let acc = ref 0 in
        for k = 0 to l - 1 do
          if
            Array.unsafe_get w (a + k) lxor s
            < Array.unsafe_get w (b' + k) lxor s
          then acc := !acc lor (1 lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 5
    | 14 (* bp_eqi_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then
        Array.unsafe_set p d (if Array.unsafe_get w a = imm then lm else 0)
      else begin
        let acc = ref 0 in
        for k = 0 to l - 1 do
          if Array.unsafe_get w (a + k) = imm then acc := !acc lor (1 lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 4
    | 15 (* bp_ulti_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then
        Array.unsafe_set p d (if Array.unsafe_get w a < imm then lm else 0)
      else begin
        let acc = ref 0 in
        for k = 0 to l - 1 do
          if Array.unsafe_get w (a + k) < imm then acc := !acc lor (1 lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 4
    | 16 (* bp_iult_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then
        Array.unsafe_set p d (if imm < Array.unsafe_get w a then lm else 0)
      else begin
        let acc = ref 0 in
        for k = 0 to l - 1 do
          if imm < Array.unsafe_get w (a + k) then acc := !acc lor (1 lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 4
    | 17 (* bp_slti_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let s = Array.unsafe_get code (q + 3) in
      let imm = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' then
        Array.unsafe_set p d
          (if Array.unsafe_get w a lxor s < imm then lm else 0)
      else begin
        let acc = ref 0 in
        for k = 0 to l - 1 do
          if Array.unsafe_get w (a + k) lxor s < imm then
            acc := !acc lor (1 lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 5
    | 18 (* bp_islt_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let s = Array.unsafe_get code (q + 3) in
      let imm = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' then
        Array.unsafe_set p d
          (if imm < Array.unsafe_get w a lxor s then lm else 0)
      else begin
        let acc = ref 0 in
        for k = 0 to l - 1 do
          if imm < Array.unsafe_get w (a + k) lxor s then
            acc := !acc lor (1 lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 5
    | 19 (* bp_sel_w *) ->
      let a = Array.unsafe_get code (q + 2) in
      let lo = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then
        Array.unsafe_set p d
          (- (Array.unsafe_get w a lsr lo land 1) land lm)
      else begin
        let acc = ref 0 in
        for k = 0 to l - 1 do
          acc :=
            !acc lor ((Array.unsafe_get w (a + k) lsr lo land 1) lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 4
    | 20 (* bp_ram *) ->
      let r = Array.unsafe_get code (q + 2) in
      let contents = Array.unsafe_get rams r in
      let a = Array.unsafe_get code (q + 3) in
      let size = Array.unsafe_get code (q + 4) in
      (if Bytes.unsafe_get u a = '\001' then begin
         let addr = Array.unsafe_get w a in
         if addr >= size then Array.unsafe_set p d 0
         else if Array.unsafe_get runi r then
           Array.unsafe_set p d
             (- (Array.unsafe_get contents (addr * l) land 1) land lm)
         else begin
           let base = addr * l in
           let acc = ref 0 in
           for k = 0 to l - 1 do
             acc := !acc lor (Array.unsafe_get contents (base + k) lsl k)
           done;
           Array.unsafe_set p d !acc
         end
       end
       else begin
         mat a;
         let acc = ref 0 in
         if Array.unsafe_get runi r then
           for k = 0 to l - 1 do
             let addr = Array.unsafe_get w (a + k) in
             if addr < size then
               acc := !acc lor (Array.unsafe_get contents (addr * l) lsl k)
           done
         else
           for k = 0 to l - 1 do
             let addr = Array.unsafe_get w (a + k) in
             if addr < size then
               acc :=
                 !acc lor (Array.unsafe_get contents ((addr * l) + k) lsl k)
           done;
         Array.unsafe_set p d !acc
       end);
      pc := q + 5
    | 21 (* bp_input *) ->
      let base = Array.unsafe_get code (q + 2) in
      if Bytes.unsafe_get inu base = '\001' then
        Array.unsafe_set p d (- (Array.unsafe_get ins base land 1) land lm)
      else begin
        let acc = ref 0 in
        for k = 0 to l - 1 do
          acc := !acc lor ((Array.unsafe_get ins (base + k) land 1) lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 3
    | 22 (* bw_not *) ->
      let a = Array.unsafe_get code (q + 2) in
      let m = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (lnot (Array.unsafe_get w a) land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (lnot (Array.unsafe_get w (a + k)) land m)
        done;
        setu d
      end;
      pc := q + 4
    | 23 (* bw_add *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then begin
        Array.unsafe_set w d
          ((Array.unsafe_get w a + Array.unsafe_get w b') land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        mat a;
        mat b';
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            ((Array.unsafe_get w (a + k) + Array.unsafe_get w (b' + k))
             land m)
        done;
        setu d
      end;
      pc := q + 5
    | 24 (* bw_sub *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then begin
        Array.unsafe_set w d
          ((Array.unsafe_get w a - Array.unsafe_get w b') land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        mat a;
        mat b';
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            ((Array.unsafe_get w (a + k) - Array.unsafe_get w (b' + k))
             land m)
        done;
        setu d
      end;
      pc := q + 5
    | 25 (* bw_mul *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then begin
        Array.unsafe_set w d
          (Array.unsafe_get w a * Array.unsafe_get w b' land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        mat a;
        mat b';
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (Array.unsafe_get w (a + k) * Array.unsafe_get w (b' + k)
             land m)
        done;
        setu d
      end;
      pc := q + 5
    | 26 (* bw_and *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then begin
        Array.unsafe_set w d
          (Array.unsafe_get w a land Array.unsafe_get w b');
        Bytes.unsafe_set u d '\001'
      end
      else begin
        mat a;
        mat b';
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (Array.unsafe_get w (a + k) land Array.unsafe_get w (b' + k))
        done;
        setu d
      end;
      pc := q + 4
    | 27 (* bw_or *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then begin
        Array.unsafe_set w d
          (Array.unsafe_get w a lor Array.unsafe_get w b');
        Bytes.unsafe_set u d '\001'
      end
      else begin
        mat a;
        mat b';
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (Array.unsafe_get w (a + k) lor Array.unsafe_get w (b' + k))
        done;
        setu d
      end;
      pc := q + 4
    | 28 (* bw_xor *) ->
      let a = Array.unsafe_get code (q + 2) in
      let b' = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' && Bytes.unsafe_get u b' = '\001'
      then begin
        Array.unsafe_set w d
          (Array.unsafe_get w a lxor Array.unsafe_get w b');
        Bytes.unsafe_set u d '\001'
      end
      else begin
        mat a;
        mat b';
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (Array.unsafe_get w (a + k) lxor Array.unsafe_get w (b' + k))
        done;
        setu d
      end;
      pc := q + 4
    | 29 (* bw_shl *) ->
      let a = Array.unsafe_get code (q + 2) in
      let sh = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get w a lsl sh land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (Array.unsafe_get w (a + k) lsl sh land m)
        done;
        setu d
      end;
      pc := q + 5
    | 30 (* bw_shr *) ->
      let a = Array.unsafe_get code (q + 2) in
      let sh = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get w a lsr sh);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k) (Array.unsafe_get w (a + k) lsr sh)
        done;
        setu d
      end;
      pc := q + 4
    | 31 (* bw_sra *) ->
      let a = Array.unsafe_get code (q + 2) in
      let sh = Array.unsafe_get code (q + 3) in
      let s = Array.unsafe_get code (q + 4) in
      let m = Array.unsafe_get code (q + 5) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d
          (((Array.unsafe_get w a lxor s) - s) asr sh land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (((Array.unsafe_get w (a + k) lxor s) - s) asr sh land m)
        done;
        setu d
      end;
      pc := q + 6
    | 32 (* bw_mux *) ->
      let c = Array.unsafe_get p (Array.unsafe_get code (q + 2)) in
      let x = Array.unsafe_get code (q + 3) in
      let y = Array.unsafe_get code (q + 4) in
      (if c = lm then
         if Bytes.unsafe_get u x = '\001' then begin
           Array.unsafe_set w d (Array.unsafe_get w x);
           Bytes.unsafe_set u d '\001'
         end
         else begin
           blit_ints w x w d l;
           setu d
         end
       else if c = 0 then
         if Bytes.unsafe_get u y = '\001' then begin
           Array.unsafe_set w d (Array.unsafe_get w y);
           Bytes.unsafe_set u d '\001'
         end
         else begin
           blit_ints w y w d l;
           setu d
         end
       else begin
         mat x;
         mat y;
         for k = 0 to l - 1 do
           Array.unsafe_set w (d + k)
             (if c lsr k land 1 <> 0 then Array.unsafe_get w (x + k)
              else Array.unsafe_get w (y + k))
         done;
         setu d
       end);
      pc := q + 5
    | 33 (* bw_mux_ix *) ->
      let c = Array.unsafe_get p (Array.unsafe_get code (q + 2)) in
      let imm = Array.unsafe_get code (q + 3) in
      let y = Array.unsafe_get code (q + 4) in
      (if c = lm then begin
         Array.unsafe_set w d imm;
         Bytes.unsafe_set u d '\001'
       end
       else if c = 0 then
         if Bytes.unsafe_get u y = '\001' then begin
           Array.unsafe_set w d (Array.unsafe_get w y);
           Bytes.unsafe_set u d '\001'
         end
         else begin
           blit_ints w y w d l;
           setu d
         end
       else begin
         mat y;
         for k = 0 to l - 1 do
           Array.unsafe_set w (d + k)
             (if c lsr k land 1 <> 0 then imm
              else Array.unsafe_get w (y + k))
         done;
         setu d
       end);
      pc := q + 5
    | 34 (* bw_mux_iy *) ->
      let c = Array.unsafe_get p (Array.unsafe_get code (q + 2)) in
      let x = Array.unsafe_get code (q + 3) in
      let imm = Array.unsafe_get code (q + 4) in
      (if c = 0 then begin
         Array.unsafe_set w d imm;
         Bytes.unsafe_set u d '\001'
       end
       else if c = lm then
         if Bytes.unsafe_get u x = '\001' then begin
           Array.unsafe_set w d (Array.unsafe_get w x);
           Bytes.unsafe_set u d '\001'
         end
         else begin
           blit_ints w x w d l;
           setu d
         end
       else begin
         mat x;
         for k = 0 to l - 1 do
           Array.unsafe_set w (d + k)
             (if c lsr k land 1 <> 0 then Array.unsafe_get w (x + k)
              else imm)
         done;
         setu d
       end);
      pc := q + 5
    | 35 (* bw_concat *) ->
      let hi = Array.unsafe_get code (q + 2) in
      let lo = Array.unsafe_get code (q + 3) in
      let lw = Array.unsafe_get code (q + 4) in
      let m = Array.unsafe_get code (q + 5) in
      if Bytes.unsafe_get u hi = '\001' && Bytes.unsafe_get u lo = '\001'
      then begin
        Array.unsafe_set w d
          ((Array.unsafe_get w hi lsl lw lor Array.unsafe_get w lo)
           land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        mat hi;
        mat lo;
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            ((Array.unsafe_get w (hi + k) lsl lw
              lor Array.unsafe_get w (lo + k))
             land m)
        done;
        setu d
      end;
      pc := q + 6
    | 36 (* bw_repl *) ->
      let a = Array.unsafe_get code (q + 2) in
      let times = Array.unsafe_get code (q + 3) in
      let aw = Array.unsafe_get code (q + 4) in
      let m = Array.unsafe_get code (q + 5) in
      if Bytes.unsafe_get u a = '\001' then begin
        let v = Array.unsafe_get w a in
        let acc = ref 0 in
        for _ = 1 to times do
          acc := (!acc lsl aw) lor v
        done;
        Array.unsafe_set w d (!acc land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          let v = Array.unsafe_get w (a + k) in
          let acc = ref 0 in
          for _ = 1 to times do
            acc := (!acc lsl aw) lor v
          done;
          Array.unsafe_set w (d + k) (!acc land m)
        done;
        setu d
      end;
      pc := q + 6
    | 37 (* bw_sel *) ->
      let a = Array.unsafe_get code (q + 2) in
      let lo = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get w a lsr lo land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (Array.unsafe_get w (a + k) lsr lo land m)
        done;
        setu d
      end;
      pc := q + 5
    | 38 (* bw_copy *) ->
      let a = Array.unsafe_get code (q + 2) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get w a);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        blit_ints w a w d l;
        setu d
      end;
      pc := q + 3
    | 39 (* bw_ram *) ->
      let r = Array.unsafe_get code (q + 2) in
      let contents = Array.unsafe_get rams r in
      let a = Array.unsafe_get code (q + 3) in
      let size = Array.unsafe_get code (q + 4) in
      (if Bytes.unsafe_get u a = '\001' then begin
         let addr = Array.unsafe_get w a in
         if addr >= size then begin
           Array.unsafe_set w d 0;
           Bytes.unsafe_set u d '\001'
         end
         else if Array.unsafe_get runi r then begin
           Array.unsafe_set w d (Array.unsafe_get contents (addr * l));
           Bytes.unsafe_set u d '\001'
         end
         else begin
           blit_ints contents (addr * l) w d l;
           setu d
         end
       end
       else begin
         (if Array.unsafe_get runi r then
            for k = 0 to l - 1 do
              let addr = Array.unsafe_get w (a + k) in
              Array.unsafe_set w (d + k)
                (if addr < size then Array.unsafe_get contents (addr * l)
                 else 0)
            done
          else
            for k = 0 to l - 1 do
              let addr = Array.unsafe_get w (a + k) in
              Array.unsafe_set w (d + k)
                (if addr < size then
                   Array.unsafe_get contents ((addr * l) + k)
                 else 0)
            done);
         setu d
       end);
      pc := q + 5
    | 40 (* bw_input *) ->
      let base = Array.unsafe_get code (q + 2) in
      if Bytes.unsafe_get inu base = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get ins base);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        blit_ints ins base w d l;
        setu d
      end;
      pc := q + 3
    | 41 (* bw_addi *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d ((Array.unsafe_get w a + imm) land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            ((Array.unsafe_get w (a + k) + imm) land m)
        done;
        setu d
      end;
      pc := q + 5
    | 42 (* bw_subi *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d ((Array.unsafe_get w a - imm) land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            ((Array.unsafe_get w (a + k) - imm) land m)
        done;
        setu d
      end;
      pc := q + 5
    | 43 (* bw_isub *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d ((imm - Array.unsafe_get w a) land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            ((imm - Array.unsafe_get w (a + k)) land m)
        done;
        setu d
      end;
      pc := q + 5
    | 44 (* bw_muli *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      let m = Array.unsafe_get code (q + 4) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get w a * imm land m);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (Array.unsafe_get w (a + k) * imm land m)
        done;
        setu d
      end;
      pc := q + 5
    | 45 (* bw_andi *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get w a land imm);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k) (Array.unsafe_get w (a + k) land imm)
        done;
        setu d
      end;
      pc := q + 4
    | 46 (* bw_ori *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get w a lor imm);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k) (Array.unsafe_get w (a + k) lor imm)
        done;
        setu d
      end;
      pc := q + 4
    | 47 (* bw_xori *) ->
      let a = Array.unsafe_get code (q + 2) in
      let imm = Array.unsafe_get code (q + 3) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d (Array.unsafe_get w a lxor imm);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k) (Array.unsafe_get w (a + k) lxor imm)
        done;
        setu d
      end;
      pc := q + 4
    | 48 (* bw_shlori *) ->
      let a = Array.unsafe_get code (q + 2) in
      let sh = Array.unsafe_get code (q + 3) in
      let imm = Array.unsafe_get code (q + 4) in
      let m = Array.unsafe_get code (q + 5) in
      if Bytes.unsafe_get u a = '\001' then begin
        Array.unsafe_set w d
          (Array.unsafe_get w a lsl sh land m lor imm);
        Bytes.unsafe_set u d '\001'
      end
      else begin
        for k = 0 to l - 1 do
          Array.unsafe_set w (d + k)
            (Array.unsafe_get w (a + k) lsl sh land m lor imm)
        done;
        setu d
      end;
      pc := q + 6
    | 49 (* bw_unpack *) ->
      let v = Array.unsafe_get p (Array.unsafe_get code (q + 2)) in
      (if v = 0 then begin
         Array.unsafe_set w d 0;
         Bytes.unsafe_set u d '\001'
       end
       else if v = lm then begin
         Array.unsafe_set w d 1;
         Bytes.unsafe_set u d '\001'
       end
       else begin
         for k = 0 to l - 1 do
           Array.unsafe_set w (d + k) (v lsr k land 1)
         done;
         setu d
       end);
      pc := q + 3
    | 50 (* bw_set0 *) ->
      Array.unsafe_set w d 0;
      Bytes.unsafe_set u d '\001';
      pc := q + 2
    | _ (* bp_pack *) ->
      let a = Array.unsafe_get code (q + 2) in
      if Bytes.unsafe_get u a = '\001' then
        Array.unsafe_set p d (- (Array.unsafe_get w a land 1) land lm)
      else begin
        let acc = ref 0 in
        for k = 0 to l - 1 do
          acc := !acc lor ((Array.unsafe_get w (a + k) land 1) lsl k)
        done;
        Array.unsafe_set p d !acc
      end;
      pc := q + 3
  done

(* Per-lane stuck-at forces: two bitwise ops for a packed register, one
   masked store per lane for word registers — or a single masked store
   when the masks agree across lanes and the slot is still uniform. *)
let apply_bforces b =
  let fs = b.bforces in
  if Array.length fs > 0 then begin
    let w = b.wvals in
    let u = b.wuni in
    Array.iter
      (fun f ->
        if f.fpacked then
          b.pvals.(f.fslot) <- b.pvals.(f.fslot) land f.fpand lor f.fpor
        else begin
          let base = f.fbase in
          if f.fwuni && Bytes.unsafe_get u base = '\001' then
            w.(base) <- w.(base) land f.fand.(0) lor f.forr.(0)
          else begin
            if Bytes.unsafe_get u base = '\001' then begin
              Array.fill w (base + 1) (b.lanes - 1) w.(base);
              Bytes.unsafe_set u base '\000'
            end;
            for k = 0 to b.lanes - 1 do
              w.(base + k) <- w.(base + k) land f.fand.(k) lor f.forr.(k)
            done
          end
        end)
      fs
  end

(* Compiled batch latch: next states into the scratch arrays, ram writes
   against pre-edge values, then commit.  Packed registers latch all
   lanes in a handful of bitwise ops; a word register whose lanes agree
   on clear/enable and whose data is uniform latches in O(1) and keeps
   its uniformity. *)
let latch_batch b =
  let p = b.pvals in
  let w = b.wvals in
  let u = b.wuni in
  let l = b.lanes in
  let lm = b.lmask in
  let cregs = b.bcregs in
  let np = b.bnext_p in
  let nw = b.bnext_w in
  let nu = b.bnext_u in
  let mat base =
    if Bytes.unsafe_get u base = '\001' then begin
      Array.fill w (base + 1) (l - 1) (Array.unsafe_get w base);
      Bytes.unsafe_set u base '\000'
    end
  in
  for k = 0 to Array.length cregs - 1 do
    let r = Array.unsafe_get cregs k in
    if r.bp then begin
      let dv = Array.unsafe_get p r.bd in
      let nx =
        if r.ben >= 0 then begin
          let e = Array.unsafe_get p r.ben in
          e land dv lor (lnot e land Array.unsafe_get p r.bself)
        end
        else dv
      in
      let nx =
        if r.bclr >= 0 then begin
          let c = Array.unsafe_get p r.bclr in
          c land r.bct lor (lnot c land nx)
        end
        else nx
      in
      Array.unsafe_set np k nx
    end
    else begin
      let base = k * l in
      let cm = if r.bclr >= 0 then Array.unsafe_get p r.bclr else 0 in
      let em = if r.ben >= 0 then Array.unsafe_get p r.ben else lm in
      if cm = lm then begin
        (* every lane clears *)
        Array.unsafe_set nw base r.bct;
        Bytes.unsafe_set nu k '\001'
      end
      else if cm = 0 && em = 0 then begin
        (* every lane holds *)
        if Bytes.unsafe_get u r.bself = '\001' then begin
          Array.unsafe_set nw base (Array.unsafe_get w r.bself);
          Bytes.unsafe_set nu k '\001'
        end
        else begin
          blit_ints w r.bself nw base l;
          Bytes.unsafe_set nu k '\000'
        end
      end
      else if cm = 0 && em = lm then begin
        (* every lane loads d *)
        if r.bdp then begin
          let dv = Array.unsafe_get p r.bd in
          if dv = 0 || dv = lm then begin
            Array.unsafe_set nw base (dv land 1);
            Bytes.unsafe_set nu k '\001'
          end
          else begin
            for j = 0 to l - 1 do
              Array.unsafe_set nw (base + j) (dv lsr j land 1)
            done;
            Bytes.unsafe_set nu k '\000'
          end
        end
        else if Bytes.unsafe_get u r.bd = '\001' then begin
          Array.unsafe_set nw base (Array.unsafe_get w r.bd);
          Bytes.unsafe_set nu k '\001'
        end
        else begin
          blit_ints w r.bd nw base l;
          Bytes.unsafe_set nu k '\000'
        end
      end
      else begin
        (* lanes disagree on clear/enable *)
        mat r.bself;
        if not r.bdp then mat r.bd;
        for j = 0 to l - 1 do
          let nx =
            if
              r.bclr >= 0
              && Array.unsafe_get p r.bclr lsr j land 1 <> 0
            then r.bct
            else if
              r.ben >= 0 && Array.unsafe_get p r.ben lsr j land 1 = 0
            then Array.unsafe_get w (r.bself + j)
            else if r.bdp then Array.unsafe_get p r.bd lsr j land 1
            else Array.unsafe_get w (r.bd + j)
          in
          Array.unsafe_set nw (base + j) nx
        done;
        Bytes.unsafe_set nu k '\000'
      end
    end
  done;
  let wps = b.bwports in
  for k = 0 to Array.length wps - 1 do
    let wp = Array.unsafe_get wps k in
    let we = Array.unsafe_get p wp.bwe in
    if we <> 0 then begin
      let r = wp.bwram in
      let contents = b.brams.(r) in
      let auni =
        if wp.bwaddr_p then begin
          let av = Array.unsafe_get p wp.bwaddr in
          av = 0 || av = lm
        end
        else Bytes.unsafe_get u wp.bwaddr = '\001'
      in
      let duni =
        if wp.bwdata_p then begin
          let dv = Array.unsafe_get p wp.bwdata in
          dv = 0 || dv = lm
        end
        else Bytes.unsafe_get u wp.bwdata = '\001'
      in
      if we = lm && auni && duni then begin
        (* one address, one datum, every lane writing *)
        let a =
          if wp.bwaddr_p then Array.unsafe_get p wp.bwaddr land 1
          else Array.unsafe_get w wp.bwaddr
        in
        if a < wp.bwsize then begin
          let v =
            if wp.bwdata_p then Array.unsafe_get p wp.bwdata land 1
            else Array.unsafe_get w wp.bwdata
          in
          if b.bruni.(r) then contents.(a * l) <- v
          else Array.fill contents (a * l) l v
        end
      end
      else begin
        if b.bruni.(r) then begin
          (* the lanes are about to disagree on contents: replicate the
             lane-0 column before the per-lane writes land *)
          for a = 0 to b.bram_sizes.(r) - 1 do
            Array.fill contents ((a * l) + 1) (l - 1)
              (Array.unsafe_get contents (a * l))
          done;
          b.bruni.(r) <- false
        end;
        if not wp.bwaddr_p then mat wp.bwaddr;
        if not wp.bwdata_p then mat wp.bwdata;
        for j = 0 to l - 1 do
          if we lsr j land 1 <> 0 then begin
            let a =
              if wp.bwaddr_p then Array.unsafe_get p wp.bwaddr lsr j land 1
              else Array.unsafe_get w (wp.bwaddr + j)
            in
            if a < wp.bwsize then
              contents.((a * l) + j) <-
                (if wp.bwdata_p then
                   Array.unsafe_get p wp.bwdata lsr j land 1
                 else Array.unsafe_get w (wp.bwdata + j))
          end
        done
      end
    end
  done;
  for k = 0 to Array.length cregs - 1 do
    let r = Array.unsafe_get cregs k in
    if r.bp then Array.unsafe_set p r.bself (Array.unsafe_get np k)
    else if Bytes.unsafe_get nu k = '\001' then begin
      Array.unsafe_set w r.bself (Array.unsafe_get nw (k * l));
      Bytes.unsafe_set u r.bself '\001'
    end
    else begin
      (* convergence detection at the register boundary: if every lane
         latched the same value the register is uniform again, and the
         cheap store keeps its fan-out uniform on the next cycle *)
      let base = k * l in
      let v0 = Array.unsafe_get nw base in
      let rec same j =
        j >= l || (Array.unsafe_get nw (base + j) = v0 && same (j + 1))
      in
      if same 1 then begin
        Array.unsafe_set w r.bself v0;
        Bytes.unsafe_set u r.bself '\001'
      end
      else begin
        blit_ints nw base w r.bself l;
        Bytes.unsafe_set u r.bself '\000'
      end
    end
  done

(* Re-broadcast the scalar power-on image into every lane — and drop all
   per-lane forces, so a reused simulator cannot leak stuck bits into the
   next batch.  Every word slot and every ram comes back lane-uniform, so
   only lane 0 (and the lane-0 ram column) is actually written: a reset
   costs O(state), not O(state × lanes).  Scratch word slots get a
   uniform flag over a stale lane-0 value, which is safe because the tape
   rewrites each scratch (value and flag) before its first read of every
   settle. *)
let broadcast_init ~init_image b =
  let l = b.lanes in
  Bytes.fill b.wuni 0 (Bytes.length b.wuni) '\001';
  for i = 0 to Array.length b.brep - 1 do
    if b.brep.(i) then
      b.pvals.(i) <- - (init_image.(i) land 1) land b.lmask
    else b.wvals.(b.bwbase.(i)) <- init_image.(i)
  done;
  Array.iteri
    (fun k contents ->
      let init = b.bram_inits.(k) in
      for a = 0 to b.bram_sizes.(k) - 1 do
        contents.(a * l) <- init.(a)
      done;
      b.bruni.(k) <- true)
    b.brams;
  Array.fill b.binputs 0 (Array.length b.binputs) 0;
  Bytes.fill b.binuni 0 (Bytes.length b.binuni) '\001';
  b.bforces <- [||]

(* ------------------------------------------------------------------ *)

let create ?(backend = `Tape) ?lanes circuit =
  let lanes =
    match (backend, lanes) with
    | `Tape, Some _ ->
      invalid_arg "Sim.create: ~lanes requires the `Batch backend"
    | `Tape, None -> 1
    | `Batch, None -> max_lanes
    | `Batch, Some l ->
      if l < 1 || l > max_lanes then
        invalid_arg
          (Printf.sprintf "Sim.create: lanes must be in 1..%d" max_lanes);
      l
  in
  let nodes = Circuit.nodes circuit in
  let n = Array.length nodes in
  let index_of = Hashtbl.create (max 16 n) in
  Array.iteri (fun i s -> Hashtbl.add index_of s.Signal.id i) nodes;
  let values = Array.make (max 1 n) 0 in
  (* inputs: one dense slot per distinct name *)
  let inputs = Circuit.inputs circuit in
  let input_slots = Array.make (max 1 (List.length inputs)) 0 in
  let input_slot_of = Hashtbl.create 16 in
  List.iteri (fun k (nm, w) -> Hashtbl.add input_slot_of nm (k, w)) inputs;
  let slot_of_input nm = fst (Hashtbl.find input_slot_of nm) in
  (* rams: hash table keyed by id for the testbench API, dense slots for
     the tape *)
  let rams = Circuit.rams circuit in
  let ram_state = Hashtbl.create 8 in
  let tape_rams = Array.make (max 1 (List.length rams)) [||] in
  let ram_slot_of = Hashtbl.create 8 in
  List.iteri
    (fun k (r : Signal.ram) ->
      let contents = Array.copy r.Signal.init_data in
      Hashtbl.add ram_state r.Signal.ram_id contents;
      Hashtbl.add ram_slot_of r.Signal.ram_id k;
      tape_rams.(k) <- contents)
    rams;
  (* Compile the tape first: its folding pass redirects aliased nodes in
     [index_of], and everything below (registers, write ports, outputs)
     must resolve through the redirected table. *)
  let code, folded =
    compile_tape nodes ~index_of ~slot_of_input
      ~ram_slot:(Hashtbl.find ram_slot_of)
  in
  let idx (s : Signal.t) = Hashtbl.find index_of s.Signal.id in
  (* registers *)
  let regs = ref [] in
  Array.iteri
    (fun i s ->
      match s.Signal.node with
      | Signal.Reg r -> regs := (i, r) :: !regs
      | _ -> ())
    nodes;
  let cregs =
    List.rev_map
      (fun (i, (r : Signal.reg)) ->
        { self = i;
          d = idx r.Signal.d;
          en = (match r.Signal.enable with Some e -> idx e | None -> -1);
          clr = (match r.Signal.clear with Some c -> idx c | None -> -1);
          clear_to = r.Signal.clear_to;
          rinit = r.Signal.init })
      !regs
    |> Array.of_list
  in
  let ram_init_of = Hashtbl.create 8 in
  List.iter
    (fun (r : Signal.ram) ->
      Hashtbl.add ram_init_of r.Signal.ram_id r.Signal.init_data)
    rams;
  let writable_inits =
    List.filter_map
      (fun (r : Signal.ram) ->
        match r.Signal.write_port with
        | None -> None
        | Some _ ->
          Some (Hashtbl.find ram_state r.Signal.ram_id, r.Signal.init_data))
      rams
    |> Array.of_list
  in
  let cwports =
    List.filter_map
      (fun (ram : Signal.ram) ->
        match ram.Signal.write_port with
        | None -> None
        | Some wp ->
          Some
            { we = idx wp.Signal.we;
              waddr = idx wp.Signal.waddr;
              wdata = idx wp.Signal.wdata;
              wsize = ram.Signal.size;
              wcontents = Hashtbl.find ram_state ram.Signal.ram_id })
      rams
    |> Array.of_list
  in
  (* preload constants: literal Const nodes, slots the tape compiler
     folded, register init values — then snapshot for [reset] *)
  Array.iter
    (fun (s : Signal.t) ->
      match s.Signal.node with
      | Signal.Const c -> values.(idx s) <- c
      | _ -> ())
    nodes;
  Array.iter (fun (i, c) -> values.(i) <- c) folded;
  Array.iter (fun r -> values.(r.self) <- r.rinit) cregs;
  let init_image = Array.copy values in
  let out_slot_of = Hashtbl.create 8 in
  List.iter
    (fun (nm, (s : Signal.t)) ->
      if not (Hashtbl.mem out_slot_of nm) then
        Hashtbl.add out_slot_of nm (idx s, s.Signal.width))
    (Circuit.outputs circuit);
  let batch =
    match backend with
    | `Tape -> None
    | `Batch ->
      let widths = Array.make (max 1 n) 1 in
      Array.iteri (fun i s -> widths.(i) <- s.Signal.width) nodes;
      (* slots the latch reads as packed: enables, clears, 1-bit register
         data, write enables — all width-1 signals, but CSE can have
         parked one on a word slot, so [translate_batch] guarantees each
         a packed resolution *)
      let latch_slots =
        Array.to_list
          (Array.concat
             [ Array.map (fun r -> r.en) cregs;
               Array.map (fun r -> r.clr) cregs;
               Array.map
                 (fun r -> if widths.(r.self) = 1 then r.d else -1)
                 cregs;
               Array.map (fun (wp : cwport) -> wp.we) cwports ])
      in
      let bcode, brep, bwbase, nword, npacked, pscratch, packed, total =
        translate_batch code ~widths ~lanes ~latch_slots
      in
      (* packed slot carrying the value of slot [i] (identity unless the
         slot is word-represented, in which case its pack scratch) *)
      let pof i = if brep.(i) then i else Hashtbl.find pscratch i in
      let lmask = lane_mask_of lanes in
      let bcregs =
        Array.map
          (fun r ->
            let bp = brep.(r.self) in
            { bp;
              bself = (if bp then r.self else bwbase.(r.self));
              bd = (if bp then pof r.d
                    else if brep.(r.d) then r.d
                    else bwbase.(r.d));
              bdp = brep.(r.d);
              ben = (if r.en >= 0 then pof r.en else -1);
              bclr = (if r.clr >= 0 then pof r.clr else -1);
              bct =
                (if bp then - (r.clear_to land 1) land lmask
                 else r.clear_to) })
          cregs
      in
      let nrams = List.length rams in
      let brams = Array.make (max 1 nrams) [||] in
      let bram_sizes = Array.make (max 1 nrams) 0 in
      let bram_inits = Array.make (max 1 nrams) [||] in
      List.iteri
        (fun k (r : Signal.ram) ->
          brams.(k) <- Array.make (r.Signal.size * lanes) 0;
          bram_sizes.(k) <- r.Signal.size;
          bram_inits.(k) <- r.Signal.init_data)
        rams;
      let bwports =
        List.filter_map
          (fun (r : Signal.ram) ->
            match r.Signal.write_port with
            | None -> None
            | Some wp ->
              let ai = idx wp.Signal.waddr and di = idx wp.Signal.wdata in
              Some
                { bwe = pof (idx wp.Signal.we);
                  bwaddr = (if brep.(ai) then ai else bwbase.(ai));
                  bwaddr_p = brep.(ai);
                  bwdata = (if brep.(di) then di else bwbase.(di));
                  bwdata_p = brep.(di);
                  bwsize = r.Signal.size;
                  bwram = Hashtbl.find ram_slot_of r.Signal.ram_id })
          rams
        |> Array.of_list
      in
      let nregs = Array.length cregs in
      let b =
        { lanes; lmask; brep; bwbase; bcode;
          pvals = Array.make (max 1 npacked) 0;
          wvals = Array.make (max 1 (nword * lanes)) 0;
          wuni = Bytes.make (max 1 (nword * lanes)) '\000';
          binputs = Array.make (Array.length input_slots * lanes) 0;
          binuni = Bytes.make (Array.length input_slots * lanes) '\001';
          brams;
          bruni = Array.make (max 1 nrams) true;
          bram_sizes; bram_inits; bram_slot_of = ram_slot_of;
          bcregs;
          bnext_p = Array.make (max 1 nregs) 0;
          bnext_w = Array.make (max 1 (nregs * lanes)) 0;
          bnext_u = Bytes.make (max 1 nregs) '\000';
          bwports; bforces = [||];
          bpacked_insts = packed; btotal_insts = total }
      in
      broadcast_init ~init_image b;
      Some b
  in
  { backend; index_of; values; code; tape_rams; cregs;
    reg_next = Array.make (max 1 (Array.length cregs)) 0;
    cwports; ram_state; writable_inits; ram_init_of;
    dirty_rams = Hashtbl.create 4;
    input_slots; input_slot_of; out_slot_of; init_image; clock = 0;
    forces = [||]; batch }

(* The compiled programs (tape and batch) read state only through
   [values], [input_slots] and the ram contents arrays (the batch lanes
   through their own arrays), all of which are restored in place — no
   recompilation needed. *)
let reset t =
  blit_ints t.init_image 0 t.values 0 (Array.length t.values);
  (* Read-only rams cannot have drifted from their init image, so only
     rams with a write port — plus any the testbench rewrote through
     [load_ram] — need restoring. *)
  Array.iter
    (fun (c, init) -> blit_ints init 0 c 0 (Array.length c))
    t.writable_inits;
  Hashtbl.iter
    (fun id () ->
      let c = Hashtbl.find t.ram_state id in
      blit_ints (Hashtbl.find t.ram_init_of id) 0 c 0 (Array.length c))
    t.dirty_rams;
  Hashtbl.reset t.dirty_rams;
  Array.fill t.input_slots 0 (Array.length t.input_slots) 0;
  t.clock <- 0;
  t.forces <- [||];
  (* per-lane state, including any stale per-lane force masks, must not
     survive into the next batch of trials *)
  match t.batch with
  | Some b -> broadcast_init ~init_image:t.init_image b
  | None -> ()

let lanes t = match t.batch with Some b -> b.lanes | None -> 1

let check_lane t lane =
  let l = lanes t in
  if lane < 0 || lane >= l then
    invalid_arg
      (Printf.sprintf "Sim: lane %d out of range (simulator has %d)" lane l)

let packed_fraction t =
  match t.batch with
  | None -> 0.
  | Some b ->
    if b.btotal_insts = 0 then 1.
    else float_of_int b.bpacked_insts /. float_of_int b.btotal_insts

(* Demote a uniform word slot so individual lanes can be addressed:
   replicate lane 0 into the stale lanes and drop the flag. *)
let mat_slot b base =
  if Bytes.get b.wuni base = '\001' then begin
    Array.fill b.wvals (base + 1) (b.lanes - 1) b.wvals.(base);
    Bytes.set b.wuni base '\000'
  end

(* Same for a ram: replicate the lane-0 column into the stale lanes. *)
let mat_ram b k =
  if b.bruni.(k) then begin
    let l = b.lanes in
    let contents = b.brams.(k) in
    for a = 0 to b.bram_sizes.(k) - 1 do
      Array.fill contents ((a * l) + 1) (l - 1) contents.(a * l)
    done;
    b.bruni.(k) <- false
  end

(* per-lane read of a dense slot on the batch backend *)
let read_slot_lane_b b lane i =
  if b.brep.(i) then b.pvals.(i) lsr lane land 1
  else begin
    let base = b.bwbase.(i) in
    if Bytes.get b.wuni base = '\001' then b.wvals.(base)
    else b.wvals.(base + lane)
  end

let set_input t name v =
  match Hashtbl.find_opt t.input_slot_of name with
  | None -> raise Not_found
  | Some (slot, w) -> (
    let v = Signal.mask_to_width w v in
    match t.batch with
    | None -> t.input_slots.(slot) <- v
    | Some b ->
      Array.fill b.binputs (slot * b.lanes) b.lanes v;
      Bytes.set b.binuni (slot * b.lanes) '\001')

let set_input_lane t lane name v =
  check_lane t lane;
  match t.batch with
  | None -> set_input t name v
  | Some b -> (
    match Hashtbl.find_opt t.input_slot_of name with
    | None -> raise Not_found
    | Some (slot, w) ->
      let v = Signal.mask_to_width w v in
      let base = slot * b.lanes in
      if Bytes.get b.binuni base = '\001' && b.binputs.(base) <> v then
        Bytes.set b.binuni base '\000';
      b.binputs.(base + lane) <- v)

(* Stuck-at forces target register slots only, which nothing writes
   during the combinational phase in either backend — applying them just
   before settle and just after latch keeps every reader consistent. *)
let apply_forces t =
  let forces = t.forces in
  if Array.length forces > 0 then
    Array.iter
      (fun (i, am, om) -> t.values.(i) <- t.values.(i) land am lor om)
      forces

let settle t =
  apply_forces t;
  match t.batch with
  | None -> exec_tape t
  | Some b ->
    apply_bforces b;
    exec_batch b

(* Compiled latch: next states into the preallocated scratch array, ram
   writes, then commit — registers and write ports see pre-edge values. *)
let latch_compiled t =
  let values = t.values in
  let cregs = t.cregs in
  let nexts = t.reg_next in
  for k = 0 to Array.length cregs - 1 do
    let r = Array.unsafe_get cregs k in
    let next =
      if r.clr >= 0 && Array.unsafe_get values r.clr <> 0 then r.clear_to
      else if r.en >= 0 && Array.unsafe_get values r.en = 0 then
        Array.unsafe_get values r.self
      else Array.unsafe_get values r.d
    in
    Array.unsafe_set nexts k next
  done;
  let wps = t.cwports in
  for k = 0 to Array.length wps - 1 do
    let w = Array.unsafe_get wps k in
    if Array.unsafe_get values w.we <> 0 then begin
      let a = Array.unsafe_get values w.waddr in
      if a < w.wsize then w.wcontents.(a) <- Array.unsafe_get values w.wdata
    end
  done;
  for k = 0 to Array.length cregs - 1 do
    Array.unsafe_set values (Array.unsafe_get cregs k).self
      (Array.unsafe_get nexts k)
  done;
  t.clock <- t.clock + 1

let latch t =
  (match t.batch with
  | None -> latch_compiled t
  | Some b ->
    latch_batch b;
    t.clock <- t.clock + 1;
    apply_bforces b);
  apply_forces t

let cycle t =
  settle t;
  latch t

let cycles t n =
  for _ = 1 to n do
    cycle t
  done

let peek_lane t lane s =
  check_lane t lane;
  match Hashtbl.find_opt t.index_of s.Signal.id with
  | None -> raise Not_found
  | Some i -> (
    match t.batch with
    | None -> t.values.(i)
    | Some b -> read_slot_lane_b b lane i)

let peek t s =
  match Hashtbl.find_opt t.index_of s.Signal.id with
  | None -> raise Not_found
  | Some i -> (
    match t.batch with
    | None -> t.values.(i)
    | Some b -> read_slot_lane_b b 0 i)

let slot t (s : Signal.t) = Hashtbl.find_opt t.index_of s.Signal.id

let read_slot t i =
  match t.batch with
  | None -> t.values.(i)
  | Some b -> read_slot_lane_b b 0 i

let output_lane t lane name =
  check_lane t lane;
  match Hashtbl.find_opt t.out_slot_of name with
  | None -> raise Not_found
  | Some (i, _) -> (
    match t.batch with
    | None -> t.values.(i)
    | Some b -> read_slot_lane_b b lane i)

let output_lane_signed t lane name =
  check_lane t lane;
  match Hashtbl.find_opt t.out_slot_of name with
  | None -> raise Not_found
  | Some (i, w) -> (
    match t.batch with
    | None -> Signal.to_signed w t.values.(i)
    | Some b -> Signal.to_signed w (read_slot_lane_b b lane i))

let output t name = output_lane t 0 name
let output_signed t name = output_lane_signed t 0 name

(* all lanes of a width-1 output in one word: bit [l] is lane [l] *)
let output_packed t name =
  match t.batch with
  | None -> invalid_arg "Sim.output_packed: requires the `Batch backend"
  | Some b -> (
    match Hashtbl.find_opt t.out_slot_of name with
    | None -> raise Not_found
    | Some (i, w) ->
      if w <> 1 then
        invalid_arg "Sim.output_packed: output is wider than 1 bit";
      if b.brep.(i) then b.pvals.(i)
      else begin
        let base = b.bwbase.(i) in
        if Bytes.get b.wuni base = '\001' then
          - (b.wvals.(base) land 1) land b.lmask
        else begin
          let acc = ref 0 in
          for k = 0 to b.lanes - 1 do
            acc := !acc lor ((b.wvals.(base + k) land 1) lsl k)
          done;
          !acc
        end
      end)

let ram_contents_lane t lane (r : Signal.ram) =
  check_lane t lane;
  match t.batch with
  | None -> Array.copy (Hashtbl.find t.ram_state r.Signal.ram_id)
  | Some b ->
    let k = Hashtbl.find b.bram_slot_of r.Signal.ram_id in
    let contents = b.brams.(k) in
    if b.bruni.(k) then
      Array.init r.Signal.size (fun a -> contents.(a * b.lanes))
    else Array.init r.Signal.size (fun a -> contents.((a * b.lanes) + lane))

let ram_contents t (r : Signal.ram) = ram_contents_lane t 0 r

(* Resolve the ram slot once and capture the contents array — sound
   across {!reset}, which refills arrays in place.  Fault campaigns call
   the returned closure O(lanes × output-cells) times per pass. *)
let ram_reader t (r : Signal.ram) =
  match t.batch with
  | None ->
    let contents = Hashtbl.find t.ram_state r.Signal.ram_id in
    fun _lane addr -> contents.(addr)
  | Some b ->
    let k = Hashtbl.find b.bram_slot_of r.Signal.ram_id in
    let contents = b.brams.(k) in
    let l = b.lanes in
    fun lane addr ->
      if b.bruni.(k) then contents.(addr * l)
      else contents.((addr * l) + lane)

(* Prefix load: [data] to addresses 0..len-1, zeros above — a whole-ram
   load without materialising a full-size padded image first.  This is the
   configuration fast path for programmable netlists, whose
   envelope-sized memories are mostly tail zeros. *)
let load_ram_prefix_lane t lane (r : Signal.ram) data =
  check_lane t lane;
  let n = Array.length data in
  if n > r.Signal.size then invalid_arg "Sim.load_ram_prefix: image too large";
  match t.batch with
  | None ->
    (match r.Signal.write_port with
    | None -> Hashtbl.replace t.dirty_rams r.Signal.ram_id ()
    | Some _ -> ());
    let contents = Hashtbl.find t.ram_state r.Signal.ram_id in
    for i = 0 to n - 1 do
      contents.(i) <- Signal.mask_to_width r.Signal.ram_width data.(i)
    done;
    Array.fill contents n (r.Signal.size - n) 0
  | Some b ->
    let k = Hashtbl.find b.bram_slot_of r.Signal.ram_id in
    mat_ram b k;
    let contents = b.brams.(k) in
    for a = 0 to n - 1 do
      contents.((a * b.lanes) + lane) <-
        Signal.mask_to_width r.Signal.ram_width data.(a)
    done;
    for a = n to r.Signal.size - 1 do
      contents.((a * b.lanes) + lane) <- 0
    done

let load_ram_prefix t (r : Signal.ram) data =
  match t.batch with
  | None -> load_ram_prefix_lane t 0 r data
  | Some b ->
    let n = Array.length data in
    if n > r.Signal.size then
      invalid_arg "Sim.load_ram_prefix: image too large";
    let k = Hashtbl.find b.bram_slot_of r.Signal.ram_id in
    let contents = b.brams.(k) in
    for a = 0 to n - 1 do
      contents.(a * b.lanes) <-
        Signal.mask_to_width r.Signal.ram_width data.(a)
    done;
    Array.fill contents (n * b.lanes) ((r.Signal.size - n) * b.lanes) 0;
    b.bruni.(k) <- true

let cycle_count t = t.clock

(* ------------------------------------------------------------------ *)
(* Fault-injection hooks.                                              *)

let poke_lane t lane (s : Signal.t) v =
  check_lane t lane;
  match Hashtbl.find_opt t.index_of s.Signal.id with
  | None -> raise Not_found
  | Some i -> (
    let v = Signal.mask_to_width s.Signal.width v in
    match t.batch with
    | None -> t.values.(i) <- v
    | Some b ->
      if b.brep.(i) then
        b.pvals.(i) <-
          b.pvals.(i) land lnot (1 lsl lane) land b.lmask
          lor ((v land 1) lsl lane)
      else begin
        let base = b.bwbase.(i) in
        mat_slot b base;
        b.wvals.(base + lane) <- v
      end)

let poke t (s : Signal.t) v =
  match Hashtbl.find_opt t.index_of s.Signal.id with
  | None -> raise Not_found
  | Some i -> (
    let v = Signal.mask_to_width s.Signal.width v in
    match t.batch with
    | None -> t.values.(i) <- v
    | Some b ->
      if b.brep.(i) then b.pvals.(i) <- - (v land 1) land b.lmask
      else begin
        let base = b.bwbase.(i) in
        b.wvals.(base) <- v;
        Bytes.set b.wuni base '\001'
      end)

let poke_ram_lane t lane (r : Signal.ram) addr v =
  check_lane t lane;
  if addr < 0 || addr >= r.Signal.size then
    invalid_arg "Sim.poke_ram: address out of range";
  let v = Signal.mask_to_width r.Signal.ram_width v in
  match t.batch with
  | None ->
    let contents = Hashtbl.find t.ram_state r.Signal.ram_id in
    (* a corrupted read-only ram must be restored by [reset], exactly
       like one rewritten through [load_ram] *)
    (match r.Signal.write_port with
    | None -> Hashtbl.replace t.dirty_rams r.Signal.ram_id ()
    | Some _ -> ());
    contents.(addr) <- v
  | Some b ->
    let k = Hashtbl.find b.bram_slot_of r.Signal.ram_id in
    mat_ram b k;
    b.brams.(k).((addr * b.lanes) + lane) <- v

let poke_ram t (r : Signal.ram) addr v =
  match t.batch with
  | None -> poke_ram_lane t 0 r addr v
  | Some b ->
    if addr < 0 || addr >= r.Signal.size then
      invalid_arg "Sim.poke_ram: address out of range";
    let k = Hashtbl.find b.bram_slot_of r.Signal.ram_id in
    let v = Signal.mask_to_width r.Signal.ram_width v in
    if b.bruni.(k) then b.brams.(k).(addr * b.lanes) <- v
    else Array.fill b.brams.(k) (addr * b.lanes) b.lanes v

let require_reg (s : Signal.t) =
  match s.Signal.node with
  | Signal.Reg _ -> ()
  | _ -> invalid_arg "Sim.force: only registers can carry stuck-at forces"

let force_scalar t (s : Signal.t) ~and_mask ~or_mask =
  require_reg s;
  let i = Hashtbl.find t.index_of s.Signal.id in
  let full = mask_of s.Signal.width in
  let entry = (i, and_mask land full, or_mask land full) in
  t.forces <- Array.append t.forces [| entry |];
  apply_forces t

(* Find or create the per-slot force entry (a handful per campaign trial
   at most, so a linear scan is fine). *)
let bforce_entry b ~slot ~width =
  let n = Array.length b.bforces in
  let rec find k =
    if k >= n then None
    else if b.bforces.(k).fslot = slot then Some b.bforces.(k)
    else find (k + 1)
  in
  match find 0 with
  | Some f -> f
  | None ->
    let packed = b.brep.(slot) in
    let full = mask_of width in
    let f =
      { fslot = slot; fpacked = packed;
        fbase = (if packed then -1 else b.bwbase.(slot));
        fand = Array.make b.lanes full;
        forr = Array.make b.lanes 0;
        fpand = (if packed then b.lmask else 0);
        fpor = 0;
        fwuni = true }
    in
    b.bforces <- Array.append b.bforces [| f |];
    f

(* keep the fast-path views in sync with the per-lane masks: the packed
   transposition for packed slots, the lanes-agree flag for word slots *)
let refresh_packed_masks b f =
  if f.fpacked then begin
    let pand = ref 0 and por = ref 0 in
    for k = 0 to b.lanes - 1 do
      pand := !pand lor ((f.fand.(k) land 1) lsl k);
      por := !por lor ((f.forr.(k) land 1) lsl k)
    done;
    f.fpand <- !pand;
    f.fpor <- !por
  end
  else begin
    let same = ref true in
    for k = 1 to b.lanes - 1 do
      if f.fand.(k) <> f.fand.(0) || f.forr.(k) <> f.forr.(0) then
        same := false
    done;
    f.fwuni <- !same
  end

let force_lane t lane (s : Signal.t) ~and_mask ~or_mask =
  check_lane t lane;
  match t.batch with
  | None -> force_scalar t s ~and_mask ~or_mask
  | Some b ->
    require_reg s;
    let i = Hashtbl.find t.index_of s.Signal.id in
    let full = mask_of s.Signal.width in
    let am = and_mask land full and om = or_mask land full in
    let f = bforce_entry b ~slot:i ~width:s.Signal.width in
    (* compose like sequential scalar forces: v&a1|o1 then &a2|o2 *)
    f.fand.(lane) <- f.fand.(lane) land am;
    f.forr.(lane) <- f.forr.(lane) land am lor om;
    refresh_packed_masks b f;
    apply_bforces b

let force t (s : Signal.t) ~and_mask ~or_mask =
  match t.batch with
  | None -> force_scalar t s ~and_mask ~or_mask
  | Some b ->
    for lane = 0 to b.lanes - 1 do
      force_lane t lane s ~and_mask ~or_mask
    done

let clear_forces t =
  t.forces <- [||];
  match t.batch with Some b -> b.bforces <- [||] | None -> ()
