open Tl_hw

type config = {
  input_av : string -> int -> Av.t;
  ram_override : Signal.ram -> Av.t option;
  widen_after : int;
  hard_cap : int;
}

let default_config =
  { input_av = (fun _ w -> Av.top w);
    ram_override = (fun _ -> None);
    widen_after = 32;
    hard_cap = 160 }

type t = { values : (int, Av.t) Hashtbl.t (* node id -> comb value *) }

let value t (s : Signal.t) =
  match Hashtbl.find_opt t.values s.Signal.id with
  | Some av -> av
  | None -> Av.top s.Signal.width

(* join of a ram's initial contents *)
let init_join (r : Signal.ram) =
  Array.fold_left
    (fun acc v -> Av.join acc (Av.const ~width:r.Signal.ram_width v))
    (Av.const ~width:r.Signal.ram_width r.Signal.init_data.(0))
    r.Signal.init_data

let run ?(config = default_config) ?(reg_clamps = []) ?(ram_clamps = [])
    circuit =
  let nodes = Circuit.nodes circuit in
  let values : (int, Av.t) Hashtbl.t = Hashtbl.create (Array.length nodes) in
  let reg_av : (int, Av.t) Hashtbl.t = Hashtbl.create 64 in
  let ram_av : (int, Av.t) Hashtbl.t = Hashtbl.create 8 in
  let reg_clamp id = List.assoc_opt id reg_clamps in
  let ram_clamp id = List.assoc_opt id ram_clamps in
  let apply_clamp clamp av =
    match clamp with Some c -> Av.meet av c | None -> av
  in
  (* writable = has (or may gain nothing: no port means contents frozen) *)
  let writable (r : Signal.ram) = r.Signal.write_port <> None in
  (* static content summary for rams that never change *)
  let static_join : (int, Av.t) Hashtbl.t = Hashtbl.create 8 in
  let frozen_content (r : Signal.ram) =
    match Hashtbl.find_opt static_join r.Signal.ram_id with
    | Some av -> av
    | None ->
      let av = init_join r in
      Hashtbl.add static_join r.Signal.ram_id av;
      av
  in
  (* initial sequential state *)
  Array.iter
    (fun (s : Signal.t) ->
      match s.Signal.node with
      | Signal.Reg r ->
        Hashtbl.replace reg_av s.Signal.id
          (apply_clamp (reg_clamp s.Signal.id)
             (Av.const ~width:s.Signal.width r.Signal.init))
      | _ -> ())
    nodes;
  List.iter
    (fun (r : Signal.ram) ->
      if writable r then
        Hashtbl.replace ram_av r.Signal.ram_id
          (apply_clamp (ram_clamp r.Signal.ram_id) (init_join r)))
    (Circuit.rams circuit);
  let get (s : Signal.t) =
    match Hashtbl.find_opt values s.Signal.id with
    | Some av -> av
    | None -> Av.top s.Signal.width
  in
  let read_ram (r : Signal.ram) addr_av =
    let w = r.Signal.ram_width in
    let cell_av =
      match config.ram_override r with
      | Some av -> `Summary av
      | None ->
        if writable r then
          `Summary
            (match Hashtbl.find_opt ram_av r.Signal.ram_id with
             | Some av -> av
             | None -> Av.top w)
        else `Cells
    in
    let oob = Av.const ~width:w 0 in
    match Av.enumerate ~limit:64 addr_av with
    | Some addrs ->
      List.fold_left
        (fun acc a ->
          let v =
            if a < 0 || a >= r.Signal.size then oob
            else
              match cell_av with
              | `Summary av -> av
              | `Cells -> Av.const ~width:w r.Signal.init_data.(a)
          in
          match acc with None -> Some v | Some j -> Some (Av.join j v))
        None addrs
      |> Option.value ~default:oob
    | None ->
      let content =
        match cell_av with `Summary av -> av | `Cells -> frozen_content r
      in
      let may_oob = addr_av.Av.uhi >= r.Signal.size || addr_av.Av.ulo < 0 in
      if may_oob then Av.join content oob else content
  in
  let eval (s : Signal.t) =
    match s.Signal.node with
    | Signal.Input n -> config.input_av n s.Signal.width
    | Signal.Const c -> Av.const ~width:s.Signal.width c
    | Signal.Unop (Signal.Not, a) -> Av.lognot (get a)
    | Signal.Binop (op, a, b) -> (
      let va = get a and vb = get b in
      match op with
      | Signal.Add -> Av.add va vb
      | Signal.Sub -> Av.sub va vb
      | Signal.Mul -> Av.mul va vb
      | Signal.And -> Av.logand va vb
      | Signal.Or -> Av.logor va vb
      | Signal.Xor -> Av.logxor va vb
      | Signal.Eq -> Av.eq va vb
      | Signal.Ult -> Av.ult va vb
      | Signal.Slt -> Av.slt va vb
      | Signal.Shl n -> Av.shl va n
      | Signal.Shr n -> Av.shr va n
      | Signal.Sra n -> Av.sra va n)
    | Signal.Mux (c, a, b) -> Av.mux (get c) (get a) (get b)
    | Signal.Concat (hi, lo) -> (
      (* [sresize] elaborates to [concat (repl (bit x (w-1))) x]; route
         that shape through the dedicated sign-extension transfer (met
         with the generic one), or the signed interval widens to top *)
      let generic = Av.concat (get hi) (get lo) in
      let hi_r = Signal.resolve hi and lo_r = Signal.resolve lo in
      let sign_bit =
        match hi_r.Signal.node with
        | Signal.Repl (b, _) -> Some (Signal.resolve b)
        | Signal.Select _ when hi_r.Signal.width = 1 -> Some hi_r
        | _ -> None
      in
      let is_sext =
        match sign_bit with
        | Some b -> (
          match b.Signal.node with
          | Signal.Select (x, h, l) ->
            let x = Signal.resolve x in
            h = l && h = x.Signal.width - 1
            && x.Signal.id = lo_r.Signal.id
          | _ -> false)
        | None -> false
      in
      if is_sext then
        Av.meet generic (Av.sext ~width:s.Signal.width (get lo))
      else generic)
    | Signal.Repl (a, n) -> Av.repl (get a) n
    | Signal.Select (a, hi, lo) -> Av.select (get a) ~hi ~lo
    | Signal.Reg _ -> (
      match Hashtbl.find_opt reg_av s.Signal.id with
      | Some av -> av
      | None -> Av.top s.Signal.width)
    | Signal.Wire r -> (
      match !r with
      | Some d -> get d
      | None -> Av.top s.Signal.width)
    | Signal.Ram_read (r, addr) -> read_ram r (get addr)
  in
  let may v av = Av.mem v av in
  let round = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let widen_now = !round >= config.widen_after in
    let force_top = !round >= config.hard_cap in
    (* combinational pass in topological order *)
    Array.iter
      (fun (s : Signal.t) -> Hashtbl.replace values s.Signal.id (eval s))
      nodes;
    (* sequential update: registers *)
    Array.iter
      (fun (s : Signal.t) ->
        match s.Signal.node with
        | Signal.Reg r ->
          let cur =
            match Hashtbl.find_opt reg_av s.Signal.id with
            | Some av -> av
            | None -> Av.top s.Signal.width
          in
          let candidates = ref [] in
          let clear_may1, clear_may0 =
            match r.Signal.clear with
            | None -> (false, true)
            | Some c ->
              let av = get c in
              (may 1 av, may 0 av)
          in
          if clear_may1 then
            candidates :=
              Av.const ~width:s.Signal.width r.Signal.clear_to :: !candidates;
          if clear_may0 then begin
            let en_may1, en_may0 =
              match r.Signal.enable with
              | None -> (true, false)
              | Some e ->
                let av = get e in
                (may 1 av, may 0 av)
            in
            if en_may0 then candidates := cur :: !candidates;
            if en_may1 then candidates := get r.Signal.d :: !candidates
          end;
          let next =
            List.fold_left Av.join cur !candidates
          in
          let next =
            apply_clamp (reg_clamp s.Signal.id)
              (if force_top then
                 (if Av.equal next cur then cur else Av.top s.Signal.width)
               else if widen_now then Av.widen cur next
               else next)
          in
          if not (Av.equal next cur) then begin
            changed := true;
            Hashtbl.replace reg_av s.Signal.id next
          end
        | _ -> ())
      nodes;
    (* sequential update: ram write ports *)
    List.iter
      (fun (r : Signal.ram) ->
        match r.Signal.write_port with
        | None -> ()
        | Some wp ->
          let cur =
            match Hashtbl.find_opt ram_av r.Signal.ram_id with
            | Some av -> av
            | None -> Av.top r.Signal.ram_width
          in
          let we_av = get wp.Signal.we in
          let next =
            if may 1 we_av then Av.join cur (get wp.Signal.wdata) else cur
          in
          let next =
            apply_clamp (ram_clamp r.Signal.ram_id)
              (if force_top then
                 (if Av.equal next cur then cur
                  else Av.top r.Signal.ram_width)
               else if widen_now then Av.widen cur next
               else next)
          in
          if not (Av.equal next cur) then begin
            changed := true;
            Hashtbl.replace ram_av r.Signal.ram_id next
          end)
      (Circuit.rams circuit);
    incr round
  done;
  { values }
