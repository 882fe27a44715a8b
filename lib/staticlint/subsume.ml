open Template

(* Correspondence from [b]'s variables to [a]'s side: register variables
   map injectively to register variables; constant variables map to an
   [a] constant variable or to a literal [a] forces at that position. *)
type cval = Cvar of cvar | Cconst of int32
type env = { tv : (tvar * tvar) list; cv : (cvar * cval) list }

let empty_env = { tv = []; cv = [] }

let bind_tvar env vb va =
  match List.assoc_opt vb env.tv with
  | Some va' -> if va' = va then Some env else None
  | None ->
      if List.exists (fun (_, va') -> va' = va) env.tv then None
        (* injective: [a]'s matcher keeps distinct tvars on distinct
           registers, so two [b] tvars may not share one *)
      else Some { env with tv = (vb, va) :: env.tv }

let bind_cvar env wb cval =
  match List.assoc_opt wb env.cv with
  | Some c' -> if c' = cval then Some env else None
  | None -> Some { env with cv = (wb, cval) :: env.cv }

(* The one value [a] can produce at a pval position, if forced. *)
let forced_value adoms = function
  | Exact c -> Some c
  | Bind v | Same v -> Dom.is_singleton (Guards.dom adoms v)
  | Any -> None

let pval_implies adoms env pa pb =
  match pb with
  | Any -> Some env
  | Exact c -> (
      match forced_value adoms pa with
      | Some c' when Int32.equal c c' -> Some env
      | _ -> None)
  | Bind w -> (
      (* [b] requires a known constant here; [Any] does not supply one *)
      match pa with
      | Exact c -> bind_cvar env w (Cconst c)
      | Bind v | Same v -> bind_cvar env w (Cvar v)
      | Any -> None)
  | Same w -> (
      match List.assoc_opt w env.cv with
      | None -> None
      | Some (Cvar v) -> (
          match pa with
          | Bind v' | Same v' when v' = v -> Some env
          | _ -> (
              match
                (forced_value adoms pa, Dom.is_singleton (Guards.dom adoms v))
              with
              | Some c, Some c' when Int32.equal c c' -> Some env
              | _ -> None))
      | Some (Cconst c) -> (
          match forced_value adoms pa with
          | Some c' when Int32.equal c c' -> Some env
          | _ -> None))

let width_implies wa wb = match wb with Wany -> true | W8 | W32 -> wa = wb
let ops_implies oa ob = List.for_all (fun o -> List.mem o ob) oa

let pstep_implies adoms env pa pb =
  match (pa, pb) with
  | Load a, Load b when width_implies a.width b.width ->
      Option.bind (bind_tvar env b.dst a.dst) (fun env ->
          bind_tvar env b.ptr a.ptr)
  | Mem_transform a, Mem_transform b
    when width_implies a.width b.width && ops_implies a.ops b.ops ->
      Option.bind (bind_tvar env b.ptr a.ptr) (fun env ->
          pval_implies adoms env a.key b.key)
  | Reg_transform a, Reg_transform b when ops_implies a.ops b.ops ->
      bind_tvar env b.reg a.reg
  | Store a, Store b when width_implies a.width b.width ->
      Option.bind (bind_tvar env b.src a.src) (fun env ->
          bind_tvar env b.ptr a.ptr)
  | Ptr_advance a, Ptr_advance b -> bind_tvar env b.ptr a.ptr
  | Back_edge, Back_edge -> Some env
  | Syscall a, Syscall b when a.vector = b.vector ->
      Option.bind (pval_implies adoms env a.al b.al) (fun env ->
          pval_implies adoms env a.bl b.bl)
  | Stack_const a, Stack_const b -> pval_implies adoms env a b
  | Code_const a, Code_const b when Int32.equal a b -> Some env
  | _ -> None

(* An [a] step quantified [Many] matches extra occurrences that, for a
   [b]-[Once] reading, would be undisciplined junk — so [Many] must map
   to [Many].  [Once] maps to either (one occurrence satisfies both). *)
let quant_implies qa qb =
  match (qa, qb) with Many _, Once _ -> false | _ -> true

let tvars_of_pstep = function
  | Load { dst; ptr; _ } -> [ dst; ptr ]
  | Mem_transform { ptr; _ } -> [ ptr ]
  | Reg_transform { reg; _ } -> [ reg ]
  | Store { src; ptr; _ } -> [ src; ptr ]
  | Ptr_advance { ptr } -> [ ptr ]
  | Back_edge | Syscall _ | Stack_const _ | Code_const _ -> []

let tvars steps =
  List.sort_uniq compare
    (List.concat_map (fun q -> tvars_of_pstep (pstep q)) steps)

(* [b]'s guard, translated through [env], entailed by [a]'s guards. *)
let guard_implied adoms aguards env g =
  let resolve w = List.assoc_opt w env.cv in
  match g with
  | Nonzero w -> (
      match resolve w with
      | Some (Cvar v) -> Guards.implied adoms aguards (Nonzero v)
      | Some (Cconst c) -> not (Int32.equal c 0l)
      | None -> false)
  | Equals (w, c) -> (
      match resolve w with
      | Some (Cvar v) -> Guards.implied adoms aguards (Equals (v, c))
      | Some (Cconst c') -> Int32.equal c c'
      | None -> false)
  | One_of (w, cs) -> (
      match resolve w with
      | Some (Cvar v) -> Guards.implied adoms aguards (One_of (v, cs))
      | Some (Cconst c) -> List.exists (Int32.equal c) cs
      | None -> false)
  | Differ (w1, w2) -> (
      match (resolve w1, resolve w2) with
      | Some (Cvar v1), Some (Cvar v2) ->
          Guards.implied adoms aguards (Differ (v1, v2))
      | Some (Cvar v), Some (Cconst c) | Some (Cconst c), Some (Cvar v) ->
          Dom.subset (Guards.dom adoms v) (Dom.exclude c)
      | Some (Cconst c1), Some (Cconst c2) -> not (Int32.equal c1 c2)
      | _, _ -> false)

let subsumes (a : t) (b : t) =
  let na = List.length a.steps and nb = List.length b.steps in
  (* whenever [a] matches, [a.data] is present; [b] must not ask for more *)
  List.for_all (fun d -> List.mem d a.data) b.data
  && nb > 0 && nb <= na
  (* consecutive [b] steps land on consecutive [a] steps, whose matched
     instructions may sit up to [a.max_gap] apart *)
  && (nb <= 1 || b.max_gap >= a.max_gap)
  &&
  let adoms = Guards.infer a.guards in
  let asteps = Array.of_list a.steps and bsteps = Array.of_list b.steps in
  let b_back_edge = List.exists (fun q -> pstep q = Back_edge) b.steps in
  let a_tvars = tvars a.steps in
  let block s =
    let rec go k env =
      if k = nb then Some env
      else
        let qa = asteps.(s + k) and qb = bsteps.(k) in
        if not (quant_implies qa qb) then None
        else
          match pstep_implies adoms env (pstep qa) (pstep qb) with
          | Some env -> go (k + 1) env
          | None -> None
    in
    go 0 empty_env
  in
  let accept env =
    (* [b]'s back-edge discipline check runs over [b]'s bound registers;
       it is only guaranteed by [a]'s when they cover the same set *)
    (not b_back_edge
    || List.for_all
         (fun v -> List.exists (fun (_, va) -> va = v) env.tv)
         a_tvars)
    && List.for_all (guard_implied adoms a.guards env) b.guards
  in
  let rec try_start s =
    s + nb <= na
    && ((match block s with Some env -> accept env | None -> false)
       || try_start (s + 1))
  in
  try_start 0

let lint ts =
  let named =
    List.filter
      (fun (_, t) -> Template_lint.well_formed t)
      (Template_lint.subjects ts)
  in
  let out = ref [] in
  let emit code severity subject message =
    out := Finding.v ~code ~severity ~subject message :: !out
  in
  let structurally_equal (a : t) (b : t) =
    a.steps = b.steps && a.guards = b.guards && a.max_gap = b.max_gap
    && a.data = b.data
  in
  let rec pairs = function
    | [] -> ()
    | (sa, a) :: rest ->
        List.iter
          (fun (sb, b) ->
            let ab = subsumes a b and ba = subsumes b a in
            if a.name = b.name then
              if structurally_equal a b then
                emit "SL010" Finding.Warn sb
                  (Printf.sprintf "exact duplicate of %s" sa)
              else begin
                if ab then
                  emit "SL011" Finding.Info sa
                    (Printf.sprintf
                       "every match is also matched by sibling %s — the \
                        generic variant settles this name first anyway"
                       sb);
                if ba then
                  emit "SL011" Finding.Info sb
                    (Printf.sprintf
                       "every match is also matched by sibling %s — the \
                        generic variant settles this name first anyway"
                       sa)
              end
            else if ab && ba then
              emit "SL008" Finding.Warn sa
                (Printf.sprintf
                   "equivalent to %s: each subsumes the other, so one of the \
                    two templates is redundant"
                   sb)
            else begin
              if ab then
                emit "SL009" Finding.Info sa
                  (Printf.sprintf
                     "every match is also matched by the more general %s \
                      (specific-before-generic hierarchy?)"
                     sb);
              if ba then
                emit "SL009" Finding.Info sb
                  (Printf.sprintf
                     "every match is also matched by the more general %s \
                      (specific-before-generic hierarchy?)"
                     sa)
            end)
          rest;
        pairs rest
  in
  pairs named;
  List.rev !out
