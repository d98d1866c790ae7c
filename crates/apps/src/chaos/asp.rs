//! The PLAN-P programs of the chaos experiments: a NACK-driven
//! reliable relay, its retransmission-free negative control, and a
//! corruption-hardened variant of the audio router.
//!
//! Data framing shared by the relay programs and the Rust traffic
//! apps: UDP datagrams to [`DATA_PORT`] whose payload starts with the
//! sequence number as an 8-byte big-endian integer; NACKs are UDP
//! datagrams to [`NACK_PORT`] carrying the requested sequence in the
//! same encoding.

/// UDP destination port carrying sequence-stamped data.
pub const DATA_PORT: u16 = 5555;

/// UDP destination port carrying NACKs (requests for a retransmission).
pub const NACK_PORT: u16 = 5556;

/// The reliable relay: relays buffer by sequence number and answer
/// NACKs with retransmissions; the receiver dedupes, NACKs gaps, and
/// keeps a timer armed until every gap closes. The model checker cannot
/// prove the retransmission cycle terminates (`E005`), so this program
/// loads under the `authenticated` policy (paper section 2.1).
pub const RELIABLE_RELAY_ASP: &str = r#"
-- Reliable relay: NACK-driven retransmission over lossy links.
--
-- One program, two roles, switched on `ipDst = thisHost()`:
--
--  * relay role (routers): every data packet is buffered by sequence
--    number in the protocol state before being forwarded. A `nack`
--    packet travelling back toward the source is intercepted; if the
--    requested sequence is buffered the relay retransmits it and
--    consumes the NACK, otherwise the NACK continues upstream.
--  * receiver role (the destination host): data packets are deduped by
--    sequence number and handed to the application; a gap (arrival
--    above the next expected sequence) triggers a NACK for the lowest
--    missing sequence and arms a timer that keeps re-NACKing until the
--    gap closes.
--
-- Data framing: UDP to `dataPort`, payload starts with the sequence
-- number as an 8-byte big-endian integer. NACKs: UDP to `nackPort`,
-- payload is the requested sequence in the same encoding.
--
-- The retransmission cycle (relay resends into the same channel) is
-- exactly the class of useful protocols the model checker rejects as
-- unprovable (E005), so this program loads under the `authenticated`
-- download policy — the paper's escape hatch for trusted sources
-- (section 2.1).

val dataPort : int = 5555
val nackPort : int = 5556
val nackDelayMs : int = 20
val timerKey : int = 1

-- The handler is unreachable (an 8-byte blob always has room for one
-- int at offset 0) but discharges the static OutOfRange obligation.
fun seqBlob(seq : int) : blob =
  (blobSetInt(mkBlob(8, 0), 0, seq) handle OutOfRange => blobFromString("00000000"))

-- Protocol state: (next expected seq, highest seen seq + 1,
-- data source host, seq -> packet table). The table is the
-- retransmission buffer on relays and the seen-set on the receiver.

channel network(ps : int * int * host * ((int, ip*udp*blob) hash_table),
                ss : unit,
                p : ip*udp*blob) is
  let
    val iph : ip = #1 p
    val udph : udp = #2 p
    val body : blob = #3 p
  in
    if udpDst(udph) = dataPort andalso blobLen(body) >= 8 then
      let
        -- The guard above ensures 8 payload bytes; the handler only
        -- satisfies the static exception screen.
        val seq : int = (blobInt(body, 0) handle OutOfRange => 0 - 1)
        val buf : (int, ip*udp*blob) hash_table = #4 ps
      in
        if ipDst(iph) = thisHost() then
          -- Receiver role.
          if tblHas(buf, seq) then
            (ps, ss)  -- duplicate (retransmission overlap): consume
          else
            (tblSet(buf, seq, p);
             deliver(p);
             let
               val expected : int = #1 ps
               val upper : int = if seq + 1 > #2 ps then seq + 1 else #2 ps
               val expected2 : int =
                 if seq = expected then expected + 1 else expected
             in
               (if expected2 < upper then
                  -- A gap: NACK the lowest missing sequence at the
                  -- sender and keep a timer armed until it closes.
                  (OnRemote(nack, (ipDestSet(ipSrcSet(iph, thisHost()),
                                             ipSrc(iph)),
                                   udpSrcSet(udpDstSet(udph, nackPort),
                                             nackPort),
                                   seqBlob(expected2)));
                   setTimer(nackDelayMs, timerKey))
                else
                  ();
                ((expected2, upper, ipSrc(iph), buf), ss))
             end)
        else
          -- Relay role: keep a copy for retransmission, then forward.
          (tblSet(buf, seq, p); OnRemote(network, p); (ps, ss))
      end
    else
      (OnRemote(network, p); (ps, ss))
  end

channel nack(ps : int * int * host * ((int, ip*udp*blob) hash_table),
             ss : unit,
             p : ip*udp*blob) is
  if ipDst(#1 p) = thisHost() then
    -- Reached the original data source: the sending application
    -- handles retransmission from here (the NACK is delivered to it).
    (deliver(p); (ps, ss))
  else
    (let
       -- A truncated NACK decodes to -1, which no buffer contains, so
       -- it falls into the NotFound arm and travels on upstream.
       val cached : ip*udp*blob =
         tblGet(#4 ps, (blobInt(#3 p, 0) handle OutOfRange => 0 - 1))
     in
       -- We buffered that sequence: retransmit and absorb the NACK.
       (OnRemote(network, cached); (ps, ss))
     end
     handle NotFound =>
       -- Never saw it (lost upstream of us): pass the NACK along.
       (OnRemote(nack, p); (ps, ss)))

channel timer(ps : int * int * host * ((int, ip*udp*blob) hash_table),
              ss : unit,
              p : ip*udp*blob) is
  let
    val expected : int = #1 ps
    val upper : int = #2 ps
    val src : host = #3 ps
    val buf : (int, ip*udp*blob) hash_table = #4 ps
  in
    if expected < upper then
      if tblHas(buf, expected) then
        -- Already arrived out of order: advance one step per tick
        -- (PLAN-P has no loops) and tick again immediately.
        (setTimer(1, timerKey); ((expected + 1, upper, src, buf), ss))
      else
        -- Still missing: re-NACK it. The synthetic timer packet
        -- donates its headers (self-addressed UDP).
        (OnRemote(nack, (ipDestSet(ipSrcSet(#1 p, thisHost()), src),
                         udpSrcSet(udpDstSet(#2 p, nackPort), nackPort),
                         seqBlob(expected)));
         setTimer(nackDelayMs, timerKey);
         (ps, ss))
    else
      (ps, ss)
  end
"#;

/// The negative control: identical framing, no buffering, no NACKs.
/// Statically spotless (termination and delivery both prove) and
/// behaviorally fragile — its delivery ratio collapses under injected
/// loss.
pub const FRAGILE_RELAY_ASP: &str = r#"
-- Fragile relay: the retransmission-free twin of
-- `asps/reliable_relay.planp`, kept as a negative control for the
-- chaos experiments.
--
-- Same framing (UDP to `dataPort`, payload begins with an 8-byte
-- sequence number) and the same role switch, but the relay keeps no
-- buffer and nobody NACKs: whatever the lossy link eats is gone.
-- Statically this program is spotless — termination and delivery both
-- prove — which is exactly the point: the verifier guarantees say
-- nothing about robustness, so under 10% injected loss its delivery
-- ratio collapses while reliable_relay holds (see EXPERIMENTS.md).

val dataPort : int = 5555

channel network(ps : int, ss : unit, p : ip*udp*blob) is
  if udpDst(#2 p) = dataPort andalso blobLen(#3 p) >= 8 then
    if ipDst(#1 p) = thisHost() then
      (deliver(p); (ps + 1, ss))
    else
      (OnRemote(network, p); (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
"#;

/// The corruption-hardened audio router: clamps corrupted quality
/// markers back into range, watches the outgoing queue as well as
/// utilization, and forwards anything it cannot parse verbatim.
pub const AUDIO_ROUTER_CHAOS_ASP: &str = r#"
-- Chaos-hardened audio bandwidth adaptation (section 3.1 under fault
-- injection).
--
-- The plain `audio_router.planp` trusts the quality marker in byte 0:
-- a corrupted marker makes it treat fresh stereo as already-degraded
-- and forward it untouched. This variant survives byte corruption:
--
--  * out-of-range quality markers are clamped back into `0..qMax` and
--    re-stamped, so one flipped byte cannot poison the downstream
--    client's decoder dispatch;
--  * besides link utilization it watches the outgoing queue, degrading
--    early during the retransmission storms that loss injection causes;
--  * every parse lives under a `handle _` fallback — a packet this
--    program cannot make sense of is forwarded verbatim, never dropped.
--
-- Every path still emits exactly one send, so termination and delivery
-- both prove and the program loads under the default no-delivery
-- policy.

val audioPort : int = 7777
val hiThresh : int = 80   -- % utilization above which we send 8-bit mono
val loThresh : int = 50   -- % utilization above which we send 16-bit mono
val hiQueue : int = 24    -- queued packets that force 8-bit mono
val loQueue : int = 8     -- queued packets that force 16-bit mono
val qMax : int = 2

fun clampQ(q : int) : int =
  if q < 0 then 0 else if q > qMax then qMax else q

fun targetQuality(util : int, qlen : int) : int =
  if util > hiThresh orelse qlen > hiQueue then 2
  else if util > loThresh orelse qlen > loQueue then 1
  else 0

fun degrade(pcm : blob, q : int) : blob =
  if q = 2 then audio16to8(audioStereoToMono(pcm))
  else if q = 1 then audioStereoToMono(pcm)
  else pcm

channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let
    val iph : ip = #1 p
    val udph : udp = #2 p
    val body : blob = #3 p
    val out : ip*udp*blob =
      (if udpDst(udph) = audioPort andalso blobLen(body) > 9 then
         let
           val q0 : int = clampQ(blobByte(body, 0))
         in
           if q0 = 0 then
             let
               val util : int =
                 (linkLoad(ipDst(iph)) * 100) div (linkCapacity(ipDst(iph)) + 1)
               val q : int = targetQuality(util, queueLen(ipDst(iph)))
               val hdr : blob = blobSetByte(blobSub(body, 0, 9), 0, q)
               val pcm : blob = degrade(blobSub(body, 9, blobLen(body) - 9), q)
             in
               if q = 0 then p else (iph, udph, blobCat(hdr, pcm))
             end
           else
             -- Marker claims the stream is already degraded (possibly a
             -- corrupted byte clamped into range): re-stamp the clamped
             -- marker and leave the samples alone.
             (iph, udph, blobSetByte(body, 0, q0))
         end
       else p)
      handle _ => p
  in
    (OnRemote(network, out); (ps, ss))
  end
"#;
