//! The verifier at work (paper section 2.1): programs that provably
//! terminate, deliver, and duplicate linearly are accepted; a packet
//! bouncer, a silent dropper, and an exponential duplicator are
//! rejected with diagnostics.
//!
//! ```text
//! cargo run --example verify_programs
//! ```

use planp::analysis::Policy;
use planp::runtime::load;

fn check(name: &str, src: &str) {
    println!("── {name} ──");
    match load(src, Policy::strict()) {
        Ok(lp) => println!("ACCEPTED\n{}\n", lp.report),
        Err(e) => println!("{e}\n"),
    }
}

fn main() {
    check(
        "plain forwarder (accepted)",
        "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
           (OnRemote(network, p); (ps, ss))",
    );

    check(
        "source/destination swap (packet cycle)",
        "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
           (OnRemote(network, (ipDestSet(ipSrcSet(#1 p, ipDst(#1 p)), ipSrc(#1 p)), #2 p, #3 p));
            (ps, ss))",
    );

    check(
        "silent dropper (violates guaranteed delivery)",
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is
           if ps > 0 then (OnRemote(network, p); (ps, ss)) else (ps, ss)",
    );

    check(
        "unhandled table miss (may raise NotFound)",
        "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is
           (println(tblGet(ss, ipSrc(#1 p))); OnRemote(network, p); (ps, ss))",
    );

    check(
        "exponential duplicator (rejected by the fix-point)",
        "channel sink(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
         channel fan(ps : unit, ss : unit, p : ip*udp*blob) is
           (OnNeighbor(fan, 10.0.0.2, p); OnNeighbor(fan, 10.0.0.3, p); (ps, ss))",
    );

    println!("── the same bouncer under an authenticated download ──");
    let bouncer = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
                     (OnRemote(network, (ipDestSet(ipSrcSet(#1 p, ipDst(#1 p)), ipSrc(#1 p)),
                                         #2 p, #3 p)); (ps, ss))";
    let lp = load(bouncer, Policy::authenticated()).expect("authenticated download");
    println!(
        "ACCEPTED under authentication (termination proved: {})",
        lp.report.termination.is_proved()
    );
}
