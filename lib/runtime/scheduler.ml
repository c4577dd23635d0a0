module Pe = Dssoc_soc.Pe
module Cost_model = Dssoc_soc.Cost_model
module Prng = Dssoc_util.Prng

type pe_state = {
  pe : Pe.t;
  mutable idle : bool;
  mutable busy_until : int;
  mutable available : bool;
      (* quarantined/dead PEs are unavailable: no policy may select or
         reserve them.  [idle] implies [available]. *)
}

type context = {
  now : int;
  ready : Task.t array;
  nready : int;
  pes : pe_state array;
  estimate : Task.t -> int -> int;
  prng : Prng.t;
  mutable ops : int;
}

type assignment = { task : Task.t; pe_index : int }

type policy = { name : string; schedule : context -> assignment list }

(* ------------------------------------------------------------------ *)
(* Built-ins                                                           *)
(* ------------------------------------------------------------------ *)

(* Every built-in walks the ready window [0, nready) in FIFO order and
   examines each PE for each task, so its recorded [ops] is always
   [nready * |pes|]; that count is charged in one step.  The walk stops
   once no PE is idle: an assignment only ever lands on an idle PE,
   [idle] never turns true again within an invocation, and everything
   else a pass computes per task (EFT's availability horizon, RANDOM's
   candidate set) is scratch.  Skipping the rest of the window is
   therefore unobservable, including RANDOM's PRNG draws, which are
   idle-gated. *)

let count_idle pes =
  let n = ref 0 in
  for i = 0 to Array.length pes - 1 do
    if pes.(i).idle then incr n
  done;
  !n

(* The loop every built-in shares: [pick task] returns the chosen idle
   PE (or -1); [walk] commits it and keeps the idle budget. *)
let walk ctx pick =
  ctx.ops <- ctx.ops + (ctx.nready * Array.length ctx.pes);
  let out = ref [] in
  let n_idle = ref (count_idle ctx.pes) in
  let j = ref 0 in
  while !j < ctx.nready && !n_idle > 0 do
    let task = ctx.ready.(!j) in
    let i = pick task in
    if i >= 0 then begin
      ctx.pes.(i).idle <- false;
      decr n_idle;
      out := { task; pe_index = i } :: !out
    end;
    incr j
  done;
  List.rev !out

let frfs =
  let schedule ctx =
    let pes = ctx.pes in
    walk ctx (fun task ->
        let chosen = ref (-1) and i = ref 0 in
        while !chosen < 0 && !i < Array.length pes do
          let st = pes.(!i) in
          if st.idle && Task.supports task st.pe then chosen := !i;
          incr i
        done;
        !chosen)
  in
  { name = "FRFS"; schedule }

let met =
  let schedule ctx =
    let pes = ctx.pes in
    walk ctx (fun task ->
        let best = ref (-1) and best_est = ref 0 in
        for i = 0 to Array.length pes - 1 do
          let st = pes.(i) in
          if st.idle && Task.supports task st.pe then begin
            let est = ctx.estimate task i in
            if !best < 0 || est < !best_est then begin
              best := i;
              best_est := est
            end
          end
        done;
        !best)
  in
  { name = "MET"; schedule }

let eft =
  let schedule ctx =
    (* Virtual availability starts from the real PE state and advances
       as the pass commits or reserves tasks, so one invocation plans
       several tasks ahead.  A task whose earliest-finish PE is busy
       *reserves* it (pushing the availability horizon) and stays in
       the ready list — the "wait for the better PE" behaviour that
       distinguishes EFT from MET. *)
    let pes = ctx.pes in
    let avail = Array.make (Array.length pes) 0 in
    for i = 0 to Array.length pes - 1 do
      avail.(i) <- (if pes.(i).idle then ctx.now else pes.(i).busy_until)
    done;
    walk ctx (fun task ->
        let best = ref (-1) and best_finish = ref 0 in
        for i = 0 to Array.length pes - 1 do
          let st = pes.(i) in
          if st.available && Task.supports task st.pe then begin
            let finish = max ctx.now avail.(i) + ctx.estimate task i in
            if !best < 0 || finish < !best_finish then begin
              best := i;
              best_finish := finish
            end
          end
        done;
        if !best < 0 then -1
        else begin
          avail.(!best) <- !best_finish;
          if pes.(!best).idle then !best else -1
        end)
  in
  { name = "EFT"; schedule }

let power =
  let schedule ctx =
    let pes = ctx.pes in
    walk ctx (fun task ->
        let best = ref (-1) and best_energy = ref 0.0 and best_est = ref 0 in
        for i = 0 to Array.length pes - 1 do
          let st = pes.(i) in
          if st.idle && Task.supports task st.pe then begin
            let est = ctx.estimate task i in
            (* Energy-to-completion for this task on this PE; ties
               broken by execution time. *)
            let energy = float_of_int est *. Pe.busy_w st.pe.Pe.kind in
            if
              !best < 0 || energy < !best_energy
              || (energy = !best_energy && est < !best_est)
            then begin
              best := i;
              best_energy := energy;
              best_est := est
            end
          end
        done;
        !best)
  in
  { name = "POWER"; schedule }

let random =
  let schedule ctx =
    let pes = ctx.pes in
    walk ctx (fun task ->
        let n = ref 0 in
        for i = 0 to Array.length pes - 1 do
          if pes.(i).idle && Task.supports task pes.(i).pe then incr n
        done;
        if !n = 0 then -1
        else begin
          (* The candidates, listed from the highest PE index down, are
             indexed by one uniform draw — the order (and hence the
             PE) a prepend-built candidate list gives. *)
          let k = ref (Prng.int ctx.prng !n) and i = ref (Array.length pes) in
          while !k >= 0 do
            decr i;
            if pes.(!i).idle && Task.supports task pes.(!i).pe then decr k
          done;
          !i
        end)
  in
  { name = "RANDOM"; schedule }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : (string, policy) Hashtbl.t = Hashtbl.create 8

let register p = Hashtbl.replace registry (String.uppercase_ascii p.name) p

let () = List.iter register [ frfs; met; eft; random; power ]

let find name =
  match Hashtbl.find_opt registry (String.uppercase_ascii name) with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown scheduling policy %S (available: %s)" name
         (String.concat ", "
            (Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare)))

let names () = Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Overhead model                                                      *)
(* ------------------------------------------------------------------ *)

let overhead ~policy_name ~pes =
  let open Cost_model in
  let[@inline] cost extra = int_of_float (Float.round (sched_base_ns +. extra)) in
  let examined ready = if ready < sched_examined_cap then ready else sched_examined_cap in
  match String.uppercase_ascii policy_name with
  | "FRFS" ->
    let c = cost (sched_frfs_per_pe_ns *. float_of_int pes) in
    fun ~ready:_ ~ops:_ -> c
  | "RANDOM" ->
    fun ~ready ~ops:_ -> cost (sched_frfs_per_pe_ns *. float_of_int (pes + examined ready))
  | "MET" | "POWER" ->
    fun ~ready ~ops:_ -> cost (sched_met_per_task_ns *. float_of_int (examined ready))
  | "EFT" ->
    fun ~ready ~ops:_ ->
      let e = examined ready in
      cost (sched_eft_per_pair_ns *. float_of_int (e * e))
  | _ -> fun ~ready:_ ~ops -> cost (60.0 *. float_of_int ops)

let overhead_ns ~policy_name ~ready ~pes ~ops = overhead ~policy_name ~pes ~ready ~ops
