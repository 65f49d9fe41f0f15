open Tl_hw
module F = Tl_lint.Finding

type result = {
  findings : F.t list;
  proofs : string list;
  engine : Engine.t;
  cycles : int;
  saturation : int option;
}

let safety_rules = [ "L200"; "L201"; "L202" ]

let gate findings =
  List.filter
    (fun (f : F.t) ->
      List.mem f.F.rule safety_rules && f.F.severity <> F.Info)
    findings

let describe (s : Signal.t) =
  match s.Signal.name with
  | Some n -> n
  | None ->
    let kind =
      match s.Signal.node with
      | Signal.Reg _ -> "reg"
      | Signal.Ram_read (r, _) -> "read:" ^ r.Signal.ram_name
      | Signal.Input n -> "input:" ^ n
      | _ -> "sig"
    in
    Printf.sprintf "%s#%d" kind s.Signal.id

(* ------------------------------------------------------------------ *)
(* Accumulator detection: [reg d] where [d] resolves (through wires) to
   [self + term], optionally under a mux whose other arm restarts the
   accumulation.  Covers the PE stationary/tree accumulators, the
   performance counters and plain counter registers of the templates. *)

type acc = {
  reg_sig : Signal.t;
  reg : Signal.reg;
  term : Signal.t;
  reset_arm : (Signal.t * Signal.t * int) option;
      (* (select, restart arm, select value that picks the arm) *)
}

let self_add (reg_sig : Signal.t) (d : Signal.t) =
  match d.Signal.node with
  | Signal.Binop (Signal.Add, a, b) ->
    if (Signal.resolve a).Signal.id = reg_sig.Signal.id then Some b
    else if (Signal.resolve b).Signal.id = reg_sig.Signal.id then Some a
    else None
  | _ -> None

let detect_acc (s : Signal.t) =
  match s.Signal.node with
  | Signal.Reg r when s.Signal.width < 62 -> (
    let d = Signal.resolve r.Signal.d in
    match self_add s d with
    | Some term -> Some { reg_sig = s; reg = r; term; reset_arm = None }
    | None -> (
      match d.Signal.node with
      | Signal.Mux (sel, on1, on0) -> (
        match self_add s (Signal.resolve on1) with
        | Some term ->
          Some { reg_sig = s; reg = r; term; reset_arm = Some (sel, on0, 0) }
        | None -> (
          match self_add s (Signal.resolve on0) with
          | Some term ->
            Some
              { reg_sig = s; reg = r; term; reset_arm = Some (sel, on1, 1) }
          | None -> None))
      | _ -> None))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Interval walks over the schedule.  Mathematical (unbounded) integers;
   the walk bails once magnitudes leave provable territory. *)

type mode = Unsigned | Signed

let interp mode w v =
  match mode with Unsigned -> v | Signed -> Signal.to_signed w v

let av_interval mode (av : Av.t) =
  match mode with
  | Unsigned -> (av.Av.ulo, av.Av.uhi)
  | Signed -> (av.Av.slo, av.Av.shi)

let fits ~w ~mode (mlo, mhi) =
  match mode with
  | Unsigned -> mlo >= 0 && mhi <= (1 lsl w) - 1
  | Signed -> mlo >= -(1 lsl (w - 1)) && mhi <= (1 lsl (w - 1)) - 1

let bail = 1 lsl 59

(* per-cycle interval of a data term: exact when the (resolved) signal is
   a recorded control stream; refined through muxes whose select is a
   control stream (the templates gate data terms with slice "valid" bits,
   which is what makes accumulators provably quiescent after the
   schedule); otherwise the engine's fixpoint interval *)
let rec term_fn depth mode engine run_opt (s : Signal.t) =
  let s = Signal.resolve s in
  let stream_of x =
    match run_opt with Some run -> Stream.values run x | None -> None
  in
  match stream_of s with
  | Some arr ->
    fun c ->
      let v = interp mode s.Signal.width arr.(c) in
      (v, v)
  | None -> (
    let fallback () =
      let lo, hi = av_interval mode (Engine.value engine s) in
      fun _ -> (lo, hi)
    in
    if depth = 0 then fallback ()
    else
      match s.Signal.node with
      | Signal.Mux (g, a, b) -> (
        match stream_of (Signal.resolve g) with
        | Some garr ->
          let fa = term_fn (depth - 1) mode engine run_opt a in
          let fb = term_fn (depth - 1) mode engine run_opt b in
          fun c -> if garr.(c) <> 0 then fa c else fb c
        | None -> fallback ())
      | _ -> fallback ())

let term_fn mode engine run_opt s = term_fn 6 mode engine run_opt s

(* collect the slice signals the walk will want recorded *)
let rec collect_track slice depth (s : Signal.t) acc =
  let s = Signal.resolve s in
  if Stream.in_slice slice s then s :: acc
  else if depth = 0 then acc
  else
    match s.Signal.node with
    | Signal.Mux (g, a, b) when Stream.in_slice slice (Signal.resolve g) ->
      let acc = Signal.resolve g :: acc in
      collect_track slice (depth - 1) a (collect_track slice (depth - 1) b acc)
    | _ -> acc

let collect_track slice s acc = collect_track slice 6 s acc

type walked = {
  env_lo : int;
  env_hi : int;  (* envelope over the walked window, incl. init *)
  forever : bool;  (* envelope proven to hold on every future cycle *)
}

(* walk one accumulator for [n] cycles.  [sel c] says which mux arm fires,
   [en c] whether the register latches, [cl c] whether it clears; each may
   be [`Unknown] when the control is input-dependent.  Returns [None] when
   the magnitudes blow past provability. *)
let walk ~n ~init ~clear_to ~term ~reset ~sel ~en ~cl ~repeat =
  let lo = ref init and hi = ref init in
  let env_lo = ref init and env_hi = ref init in
  (* state interval entering each cycle, for the periodicity check *)
  let entry_lo = Array.make (n + 1) 0 in
  let entry_hi = Array.make (n + 1) 0 in
  let ok = ref true in
  let c = ref 0 in
  entry_lo.(0) <- init;
  entry_hi.(0) <- init;
  while !ok && !c < n do
    let tlo, thi = term !c in
    let add_lo = !lo + tlo and add_hi = !hi + thi in
    let d_lo, d_hi =
      match sel !c with
      | `NoMux | `Acc -> (add_lo, add_hi)
      | `Reset -> reset !c
      | `Unknown ->
        let rlo, rhi = reset !c in
        (min add_lo rlo, max add_hi rhi)
    in
    let e_lo, e_hi =
      match en !c with
      | `On -> (d_lo, d_hi)
      | `Off -> (!lo, !hi)
      | `Unknown -> (min d_lo !lo, max d_hi !hi)
    in
    let n_lo, n_hi =
      match cl !c with
      | `Run -> (e_lo, e_hi)
      | `Clear -> (clear_to, clear_to)
      | `Unknown -> (min e_lo clear_to, max e_hi clear_to)
    in
    lo := n_lo;
    hi := n_hi;
    env_lo := min !env_lo n_lo;
    env_hi := max !env_hi n_hi;
    if n_hi > bail || n_lo < -bail then ok := false;
    incr c;
    if !ok then begin
      entry_lo.(!c) <- n_lo;
      entry_hi.(!c) <- n_hi
    end
  done;
  if not !ok then None
  else
    let forever =
      (* the slice state entering cycle c2 equals the state entering c1,
         so controls repeat with period c2-c1; if the walked interval at
         c2 is included in the interval at c1, monotonicity of the step
         pushes the inclusion forward forever *)
      match repeat with
      | Some (c1, c2) when c2 <= n ->
        entry_lo.(c2) >= entry_lo.(c1) && entry_hi.(c2) <= entry_hi.(c1)
      | _ -> false
    in
    Some { env_lo = !env_lo; env_hi = !env_hi; forever }

(* ------------------------------------------------------------------ *)

let interval_pp (lo, hi) = Printf.sprintf "[%d, %d]" lo hi

let analyze ?(config = Engine.default_config) ?(cycles = 1024) ?target
    circuit =
  let n = max 1 cycles in
  (* evaluate the slice a little past the schedule so a controller that
     reaches its terminal fixpoint exactly at the end (or a cycle after
     it) still shows up as a repeating state; [Stream] repeats always
     satisfy [c2 <= nrec - 1], so every stream access below is in range *)
  let nrec = n + 4 in
  let target =
    match target with Some t -> t | None -> Circuit.name circuit
  in
  let nodes = Circuit.nodes circuit in
  (* a ram whose contents the config overrides holds data the proofs
     must not read exactly: its reads leave the slice *)
  let slice =
    Stream.build
      ~unknown:(fun r -> config.Engine.ram_override r <> None)
      circuit
  in
  let findings = ref [] in
  let proofs = ref [] in
  let emit f = findings := f :: !findings in
  let prove p = proofs := p :: !proofs in
  (* -- structural detection ---------------------------------------- *)
  let accs =
    Array.to_list nodes |> List.filter_map detect_acc
  in
  let writable_rams =
    List.filter (fun (r : Signal.ram) -> r.Signal.write_port <> None)
      (Circuit.rams circuit)
  in
  (* -- control streams --------------------------------------------- *)
  let track = ref [] in
  let seen_track = Hashtbl.create 32 in
  let add_track (s : Signal.t) =
    if not (Hashtbl.mem seen_track s.Signal.id) then begin
      Hashtbl.replace seen_track s.Signal.id ();
      track := s :: !track
    end
  in
  let track_if_slice s =
    List.iter add_track (collect_track slice s [])
  in
  List.iter
    (fun (r : Signal.ram) ->
      match r.Signal.write_port with
      | Some wp ->
        track_if_slice wp.Signal.we;
        track_if_slice wp.Signal.waddr
      | None -> ())
    writable_rams;
  List.iter
    (fun a ->
      track_if_slice a.term;
      (match a.reset_arm with
       | Some (sel, arm, _) ->
         track_if_slice sel;
         track_if_slice arm
       | None -> ());
      (match a.reg.Signal.enable with
       | Some e -> track_if_slice e
       | None -> ());
      match a.reg.Signal.clear with
      | Some c -> track_if_slice c
      | None -> ())
    accs;
  let done_sig =
    List.assoc_opt "done" (Circuit.outputs circuit)
    |> Option.map Signal.resolve
  in
  (match done_sig with Some d -> track_if_slice d | None -> ());
  let run_opt =
    if !track = [] then None
    else Some (Stream.record slice ~cycles:nrec ~track:!track)
  in
  let repeat = match run_opt with Some r -> r.Stream.repeat | None -> None in
  let saturation =
    match run_opt with Some r -> r.Stream.saturation | None -> None
  in
  let stream_of (s : Signal.t) =
    match run_opt with
    | Some run -> Stream.values run (Signal.resolve s)
    | None -> None
  in
  (* -- phase 1: unconstrained fixpoint ------------------------------ *)
  let e0 = Engine.run ~config circuit in
  (* -- phase 2: accumulator walks -> register clamps ---------------- *)
  let ctl_sel a =
    match a.reset_arm with
    | None -> fun _ -> `NoMux
    | Some (sel, _, on_v) -> (
      match stream_of sel with
      | Some arr -> fun c -> if arr.(c) = on_v then `Reset else `Acc
      | None -> fun _ -> `Unknown)
  in
  let ctl_en a =
    match a.reg.Signal.enable with
    | None -> fun _ -> `On
    | Some e -> (
      match stream_of e with
      | Some arr -> fun c -> if arr.(c) = 0 then `Off else `On
      | None -> fun _ -> `Unknown)
  in
  let ctl_cl a =
    match a.reg.Signal.clear with
    | None -> fun _ -> `Run
    | Some cs -> (
      match stream_of cs with
      | Some arr -> fun c -> if arr.(c) <> 0 then `Clear else `Run
      | None -> fun _ -> `Unknown)
  in
  let try_mode engine a mode =
    let w = a.reg_sig.Signal.width in
    let init = interp mode w (Signal.mask_to_width w a.reg.Signal.init) in
    let clear_to =
      interp mode w (Signal.mask_to_width w a.reg.Signal.clear_to)
    in
    let term = term_fn mode engine run_opt a.term in
    let reset =
      match a.reset_arm with
      | Some (_, arm, _) -> term_fn mode engine run_opt arm
      | None -> fun _ -> (0, 0)
    in
    match
      walk ~n:nrec ~init ~clear_to ~term ~reset ~sel:(ctl_sel a) ~en:(ctl_en a)
        ~cl:(ctl_cl a) ~repeat
    with
    | Some wk when wk.forever && fits ~w ~mode (wk.env_lo, wk.env_hi) ->
      Some (mode, wk)
    | _ -> None
  in
  let reg_clamps = ref [] in
  let unproven = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let w = a.reg_sig.Signal.width in
      match
        (match try_mode e0 a Unsigned with
         | Some r -> Some r
         | None -> try_mode e0 a Signed)
      with
      | Some (mode, wk) ->
        let av =
          match mode with
          | Unsigned -> Av.of_unsigned ~width:w wk.env_lo wk.env_hi
          | Signed -> Av.of_signed ~width:w wk.env_lo wk.env_hi
        in
        reg_clamps := (a.reg_sig.Signal.id, av) :: !reg_clamps;
        prove
          (Printf.sprintf
             "L200 %s: accumulator stays in %s (%d-bit %s range) on every \
              cycle"
             (describe a.reg_sig)
             (interval_pp (wk.env_lo, wk.env_hi))
             w
             (match mode with Unsigned -> "unsigned" | Signed -> "signed"))
      | None ->
        Hashtbl.replace unproven a.reg_sig.Signal.id ();
        emit
          (F.v ~rule:"L200" ~target ~subject:(describe a.reg_sig)
             (Printf.sprintf
                "%d-bit accumulator not proven wrap-free over the %d-cycle \
                 schedule (envelope unbounded or schedule not proven \
                 periodic)"
                w n)))
    accs;
  let e1 =
    if !reg_clamps = [] then e0
    else Engine.run ~config ~reg_clamps:!reg_clamps circuit
  in
  (* -- phase 3: read-modify-write bank bounds -> ram clamps --------- *)
  (* A written term fed by an unproven accumulator may carry a wrapped
     value, which its width interval cannot show: such a bank is not
     proven.  The walk follows registers and memory write ports. *)
  let fed_by_unproven (s : Signal.t) =
    let seen = Hashtbl.create 64 in
    let rec go (s : Signal.t) =
      Hashtbl.mem unproven s.Signal.id
      || (not (Hashtbl.mem seen s.Signal.id))
         && begin
           Hashtbl.replace seen s.Signal.id ();
           List.exists go (Circuit.all_children s)
         end
    in
    Hashtbl.length unproven > 0 && go s
  in
  let rmw_value (r : Signal.ram) (wp : Signal.write_port) =
    match (Signal.resolve wp.Signal.wdata).Signal.node with
    | Signal.Binop (Signal.Add, x, y) -> (
      let is_self_read (s : Signal.t) =
        match (Signal.resolve s).Signal.node with
        | Signal.Ram_read (r2, a2) ->
          r2.Signal.ram_id = r.Signal.ram_id
          && (Signal.resolve a2).Signal.id
             = (Signal.resolve wp.Signal.waddr).Signal.id
        | _ -> false
      in
      if is_self_read x then Some y else if is_self_read y then Some x
      else None)
    | _ -> None
  in
  let ram_clamps = ref [] in
  List.iter
    (fun (r : Signal.ram) ->
      match r.Signal.write_port with
      | None -> ()
      | Some wp -> (
        match rmw_value r wp with
        | None -> ()
        | Some value -> (
          let w = r.Signal.ram_width in
          match (stream_of wp.Signal.we, stream_of wp.Signal.waddr) with
          | Some we_arr, Some addr_arr when w < 62 -> (
            let active_in_period =
              match repeat with
              | Some (c1, c2) ->
                let active = ref false in
                for c = c1 to c2 - 1 do
                  if we_arr.(c) <> 0 && addr_arr.(c) < r.Signal.size then
                    active := true
                done;
                Some !active
              | _ -> None
            in
            match active_in_period with
            | Some false ->
              (* finite write schedule: count per-cell writes *)
              let counts = Array.make r.Signal.size 0 in
              for c = 0 to nrec - 1 do
                if we_arr.(c) <> 0 && addr_arr.(c) < r.Signal.size then
                  counts.(addr_arr.(c)) <- counts.(addr_arr.(c)) + 1
              done;
              let nmax = Array.fold_left max 0 counts in
              let v_av = Engine.value e1 value in
              let try_bank mode =
                let ilo = ref max_int and ihi = ref min_int in
                Array.iter
                  (fun x ->
                    let v = interp mode w (Signal.mask_to_width w x) in
                    ilo := min !ilo v;
                    ihi := max !ihi v)
                  r.Signal.init_data;
                let vlo, vhi = av_interval mode v_av in
                if
                  nmax > 0
                  && (abs vlo > bail / nmax || abs vhi > bail / nmax)
                then None
                else
                  let lo = !ilo + (nmax * min 0 vlo) in
                  let hi = !ihi + (nmax * max 0 vhi) in
                  if fits ~w ~mode (lo, hi) then Some (mode, lo, hi)
                  else None
              in
              let first, second =
                if v_av.Av.slo < 0 then (Signed, Unsigned)
                else (Unsigned, Signed)
              in
              (match
                 if fed_by_unproven value then None
                 else
                   match try_bank first with
                   | Some r -> Some r
                   | None -> try_bank second
               with
               | Some (mode, lo, hi) ->
                 let av =
                   match mode with
                   | Unsigned -> Av.of_unsigned ~width:w lo hi
                   | Signed -> Av.of_signed ~width:w lo hi
                 in
                 ram_clamps := (r.Signal.ram_id, av) :: !ram_clamps;
                 prove
                   (Printf.sprintf
                      "L200 %s: bank cells stay in %s (at most %d \
                       accumulating write%s per cell)"
                      r.Signal.ram_name
                      (interval_pp (lo, hi))
                      nmax
                      (if nmax = 1 then "" else "s"))
               | None ->
                 emit
                   (F.v ~rule:"L200" ~target ~subject:r.Signal.ram_name
                      (Printf.sprintf
                         "%d-bit read-modify-write bank not proven \
                          wrap-free (up to %d accumulating writes per cell)"
                         w nmax)))
            | _ ->
              emit
                (F.v ~rule:"L200" ~target ~subject:r.Signal.ram_name
                   (Printf.sprintf
                      "read-modify-write bank unproven: write schedule not \
                       proven periodic within %d cycles"
                      n)))
          | _ ->
            emit
              (F.v ~rule:"L200" ~target ~subject:r.Signal.ram_name
                 "read-modify-write bank unproven: write schedule is \
                  input-dependent"))))
    writable_rams;
  let e2 =
    if !ram_clamps = [] then e1
    else
      Engine.run ~config ~reg_clamps:!reg_clamps ~ram_clamps:!ram_clamps
        circuit
  in
  (* -- phase 4: address-range checks (L201) ------------------------- *)
  List.iter
    (fun (r : Signal.ram) ->
      match r.Signal.write_port with
      | None -> ()
      | Some wp -> (
        match (stream_of wp.Signal.we, stream_of wp.Signal.waddr) with
        | Some we_arr, Some addr_arr ->
          let oob = ref None in
          let total = ref 0 in
          for c = 0 to nrec - 1 do
            if we_arr.(c) <> 0 then begin
              incr total;
              if addr_arr.(c) >= r.Signal.size && !oob = None then
                oob := Some (c, addr_arr.(c))
            end
          done;
          (match !oob with
           | Some (c, a) ->
             emit
               (F.v ~rule:"L201" ~severity:F.Error ~target
                  ~subject:r.Signal.ram_name
                  (Printf.sprintf
                     "scheduled write to address %d at cycle %d is out of \
                      range (size %d): the write is dropped and the result \
                      is lost"
                     a c r.Signal.size))
           | None ->
             prove
               (Printf.sprintf
                  "L201 %s: all %d scheduled writes are in range (size %d)"
                  r.Signal.ram_name !total r.Signal.size))
        | _ ->
          let av = Engine.value e2 wp.Signal.waddr in
          if av.Av.ulo >= r.Signal.size then
            emit
              (F.v ~rule:"L201" ~severity:F.Error ~target
                 ~subject:r.Signal.ram_name
                 (Printf.sprintf
                    "write address is always out of range (>= %d, size %d)"
                    av.Av.ulo r.Signal.size))
          else if av.Av.uhi >= r.Signal.size then
            emit
              (F.v ~rule:"L201" ~target ~subject:r.Signal.ram_name
                 (Printf.sprintf
                    "write address not proven in range: interval [%d, %d] \
                     reaches past size %d (out-of-range writes are dropped)"
                    av.Av.ulo av.Av.uhi r.Signal.size))
          else
            prove
              (Printf.sprintf
                 "L201 %s: write address interval [%d, %d] proven in range \
                  (size %d)"
                 r.Signal.ram_name av.Av.ulo av.Av.uhi r.Signal.size)))
    writable_rams;
  (* may-out-of-range reads: harmless (the simulator returns 0) but worth
     a note; one aggregated finding per ram *)
  let read_notes : (int, string * int) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (s : Signal.t) ->
      match s.Signal.node with
      | Signal.Ram_read (r, addr) ->
        let av = Engine.value e2 addr in
        if av.Av.uhi >= r.Signal.size then
          let name = r.Signal.ram_name in
          let _, k =
            Option.value ~default:(name, 0)
              (Hashtbl.find_opt read_notes r.Signal.ram_id)
          in
          Hashtbl.replace read_notes r.Signal.ram_id (name, k + 1)
      | _ -> ())
    nodes;
  Hashtbl.iter
    (fun _ (name, k) ->
      emit
        (F.v ~rule:"L201" ~severity:F.Info ~target ~subject:name
           (Printf.sprintf
              "%d read port%s may address past the end of the memory \
               (out-of-range reads return 0)"
              k
              (if k = 1 then "" else "s"))))
    read_notes;
  (* -- phase 5: schedule quiescence (L202) -------------------------- *)
  List.iter
    (fun (r : Signal.ram) ->
      match r.Signal.write_port with
      | None -> ()
      | Some wp -> (
        match stream_of wp.Signal.we with
        | None ->
          emit
            (F.v ~rule:"L202" ~target ~subject:r.Signal.ram_name
               "write enable is input-dependent: bank schedule cannot be \
                statically verified")
        | Some we_arr -> (
          match repeat with
          | Some (c1, c2) ->
            let active = ref false in
            for c = c1 to c2 - 1 do
              if we_arr.(c) <> 0 then active := true
            done;
            if !active then
              emit
                (F.v ~rule:"L202" ~severity:F.Error ~target
                   ~subject:r.Signal.ram_name
                   (Printf.sprintf
                      "write strobe is active in the schedule's repeating \
                       state (cycles %d..%d repeat forever): the bank \
                       re-accumulates indefinitely"
                      c1 (c2 - 1)))
            else begin
              let writes = ref 0 in
              Array.iter (fun v -> if v <> 0 then incr writes) we_arr;
              prove
                (Printf.sprintf
                   "L202 %s: write schedule quiesces (%d writes, none in \
                    the repeating state from cycle %d)"
                   r.Signal.ram_name !writes c1)
            end
          | _ ->
            emit
              (F.v ~rule:"L202" ~target ~subject:r.Signal.ram_name
                 (Printf.sprintf
                    "write schedule not proven to quiesce: no repeating \
                     controller state found within %d cycles"
                    n)))))
    writable_rams;
  (* controller termination: [done] proven to stick at 1 *)
  (match (done_sig, repeat) with
   | Some d, Some (c1, c2) -> (
     match stream_of d with
     | Some arr ->
       let stuck = ref true in
       for c = c1 to c2 - 1 do
         if arr.(c) = 0 then stuck := false
       done;
       if !stuck then
         prove
           (Printf.sprintf
              "controller terminates: done is asserted in the repeating \
               state (from cycle %d)"
              c1)
     | None -> ())
   | _ -> ());
  (* -- phase 6: constant registers (L203) --------------------------- *)
  let const_regs =
    Array.to_list nodes
    |> List.filter_map (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Reg _ -> (
          match Av.is_const (Engine.value e2 s) with
          | Some v -> Some (s, v)
          | None -> None)
        | _ -> None)
  in
  let named, anon =
    List.partition (fun ((s : Signal.t), _) -> s.Signal.name <> None)
      const_regs
  in
  let shown = ref 0 in
  List.iter
    (fun ((s : Signal.t), v) ->
      if !shown < 8 then begin
        incr shown;
        emit
          (F.v ~rule:"L203" ~target ~subject:(describe s)
             (Printf.sprintf
                "register is proven constant (value %d on every reachable \
                 cycle); it can be folded away"
                v))
      end)
    (named @ anon);
  let rest = List.length const_regs - !shown in
  if rest > 0 then
    emit
      (F.v ~rule:"L203" ~target ~subject:"registers"
         (Printf.sprintf "%d more registers are proven constant" rest));
  (* -- phase 7: provably-constant high bits (L204) ------------------ *)
  let narrow_sigs = ref 0 and narrow_bits = ref 0 in
  Array.iter
    (fun (s : Signal.t) ->
      let av = Engine.value e2 s in
      if Av.is_const av = None then begin
        let k = Av.known_high_bits av in
        if k > 0 then begin
          incr narrow_sigs;
          narrow_bits := !narrow_bits + k
        end
      end)
    nodes;
  if !narrow_sigs > 0 then begin
    emit
      (F.v ~rule:"L204" ~target ~subject:"netlist"
         (Printf.sprintf
            "%d signals carry %d provably-constant high bits in total; \
             datapath widths can be narrowed (see the analysis rewrite)"
            !narrow_sigs !narrow_bits));
    prove
      (Printf.sprintf "L204: %d provably-dead or constant high bits across \
                       %d signals"
         !narrow_bits !narrow_sigs)
  end;
  { findings = List.rev !findings;
    proofs = List.rev !proofs;
    engine = e2;
    cycles = n;
    saturation }
