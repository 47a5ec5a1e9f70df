// Layer replays: the traced run's own reads and writes through a fresh
// storage::MvStore, and its transactions' messages through the wire codec.
// Both are timed in batches (one clock pair per run of same-kind
// operations), repeated, and reported as medians per operation.

#include <algorithm>

#include "perfbench.h"
#include "storage/mv_store.h"
#include "wire/buffer.h"
#include "wire/messages.h"

namespace perfbench {

using namespace paris;

namespace {

constexpr int kRepeats = 3;

double median3(std::vector<double> v) { return quantile(v, 0.5); }

struct StoreTimes {
  double read_ns = 0, apply_ns = 0, gc_ns = 0, gc_removed = 0, versions_per_key = 0;
  std::uint64_t sink = 0;
};

/// Applies writes and serves reads in their traced time order; every
/// `gc_interval_ns` of traced time, garbage-collects at the oldest snapshot
/// read during the interval (the servers' UST-driven watermark).
StoreTimes replay_store(const std::vector<ReadRec>& reads, const std::vector<WriteRec>& writes,
                        std::uint64_t gc_interval_ns) {
  struct Op {
    std::uint64_t t;
    bool write;
    std::size_t i;
  };
  std::vector<Op> ops;
  ops.reserve(reads.size() + writes.size());
  for (std::size_t i = 0; i < writes.size(); ++i) ops.push_back({writes[i].t_ns, true, i});
  for (std::size_t i = 0; i < reads.size(); ++i) ops.push_back({reads[i].t_ns, false, i});
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) { return a.t < b.t; });

  StoreTimes out;
  store::MvStore st;
  std::uint64_t next_gc = ops.empty() ? 0 : ops.front().t + gc_interval_ns;
  Timestamp oldest = kTsMax;
  std::size_t i = 0;
  while (i < ops.size()) {
    if (ops[i].t >= next_gc) {
      if (oldest != kTsMax) {
        const std::uint64_t g0 = steady_ns();
        out.gc_removed += static_cast<double>(st.gc(oldest));
        out.gc_ns += static_cast<double>(steady_ns() - g0);
      }
      oldest = kTsMax;
      while (next_gc <= ops[i].t) next_gc += gc_interval_ns;
    }
    // One timed batch: the run of same-kind operations before the next GC.
    const bool write = ops[i].write;
    std::size_t j = i;
    const std::uint64_t b0 = steady_ns();
    for (; j < ops.size() && ops[j].write == write && ops[j].t < next_gc; ++j) {
      if (write) {
        const WriteRec& w = writes[ops[j].i];
        st.apply(w.key, w.value, 0, w.ct, w.tx, w.origin, 0);
      } else {
        const ReadRec& r = reads[ops[j].i];
        const store::Version* v = st.read(r.key, r.snapshot);
        out.sink += v != nullptr ? v->ut.raw : 1;
      }
    }
    const double ns = static_cast<double>(steady_ns() - b0);
    (write ? out.apply_ns : out.read_ns) += ns;
    if (!write) {
      for (std::size_t k = i; k < j; ++k) oldest = std::min(oldest, reads[ops[k].i].snapshot);
    }
    i = j;
  }
  out.versions_per_key =
      st.num_keys() != 0 ? static_cast<double>(st.num_versions()) / static_cast<double>(st.num_keys())
                         : 0;
  return out;
}

/// The messages one traced transaction puts on the wire between client,
/// coordinator and cohorts.
std::vector<wire::MessagePtr> tx_messages(const TxMsgs& t) {
  std::vector<wire::MessagePtr> out;
  auto rr = wire::make_message<wire::ClientReadReq>();
  rr->tx = t.tx;
  rr->keys = t.keys;
  out.emplace_back(std::move(rr));
  auto sr = wire::make_message<wire::ReadSliceReq>();
  sr->tx = t.tx;
  sr->snapshot = t.snapshot;
  sr->keys = t.keys;
  out.emplace_back(std::move(sr));
  auto ss = wire::make_message<wire::ReadSliceResp>();
  ss->tx = t.tx;
  ss->items = t.items;
  out.emplace_back(std::move(ss));
  auto rs = wire::make_message<wire::ClientReadResp>();
  rs->tx = t.tx;
  rs->items = t.items;
  out.emplace_back(std::move(rs));
  auto cr = wire::make_message<wire::ClientCommitReq>();
  cr->tx = t.tx;
  cr->hwt = t.snapshot;
  cr->writes = t.writes;
  out.emplace_back(std::move(cr));
  auto pr = wire::make_message<wire::PrepareReq>();
  pr->tx = t.tx;
  pr->snapshot = t.snapshot;
  pr->ht = t.snapshot;
  pr->writes = t.writes;
  out.emplace_back(std::move(pr));
  auto c2 = wire::make_message<wire::Commit2pc>();
  c2->tx = t.tx;
  c2->ct = t.ct;
  out.emplace_back(std::move(c2));
  auto cc = wire::make_message<wire::ClientCommitResp>();
  cc->tx = t.tx;
  cc->ct = t.ct;
  out.emplace_back(std::move(cc));
  return out;
}

}  // namespace

bool replay_layers(const std::vector<ReadRec>& reads, const std::vector<WriteRec>& writes,
                   const std::vector<TxMsgs>& txs, std::uint64_t gc_interval_ns, Report* rep) {
  std::vector<double> read_ns, apply_ns, gc_ns, enc_ns, dec_ns;
  double versions_per_key = 0;
  std::uint64_t sink = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const StoreTimes s = replay_store(reads, writes, gc_interval_ns);
    read_ns.push_back(reads.empty() ? 0 : s.read_ns / static_cast<double>(reads.size()));
    apply_ns.push_back(writes.empty() ? 0 : s.apply_ns / static_cast<double>(writes.size()));
    gc_ns.push_back(s.gc_removed > 0 ? s.gc_ns / s.gc_removed : 0);
    versions_per_key = s.versions_per_key;
    sink += s.sink;
  }

  std::vector<wire::MessagePtr> msgs;
  for (const TxMsgs& t : txs) {
    for (auto& m : tx_messages(t)) msgs.push_back(std::move(m));
  }
  // Reference encodings, and the round-trip check: a decoded message must
  // re-encode to the same bytes.
  std::vector<std::vector<std::uint8_t>> encoded(msgs.size());
  bool ok = true;
  {
    wire::MessagePool pool;
    std::vector<std::uint8_t> again;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      wire::encode_message(*msgs[i], encoded[i]);
      wire::Decoder d(encoded[i]);
      const wire::MessagePtr back = wire::decode_message_pooled(d, pool);
      again.clear();
      wire::encode_message(*back, again);
      ok = ok && again == encoded[i];
    }
  }
  std::vector<std::uint8_t> out;
  out.reserve(1 << 16);
  for (int r = 0; r < kRepeats && !msgs.empty(); ++r) {
    const std::uint64_t e0 = steady_ns();
    for (const wire::MessagePtr& m : msgs) {
      out.clear();
      wire::encode_message(*m, out);
      sink += out.size();
    }
    enc_ns.push_back(static_cast<double>(steady_ns() - e0) / static_cast<double>(msgs.size()));
    wire::MessagePool pool;
    const std::uint64_t d0 = steady_ns();
    for (const auto& bytes_i : encoded) {
      wire::Decoder d(bytes_i);
      const wire::MessagePtr m = wire::decode_message_pooled(d, pool);
      sink += static_cast<std::uint64_t>(m->type());
    }
    dec_ns.push_back(static_cast<double>(steady_ns() - d0) / static_cast<double>(msgs.size()));
  }

  rep->num("storage_read_ns_per_key", median3(read_ns));
  rep->num("storage_apply_ns_per_write", median3(apply_ns));
  rep->num("storage_gc_ns_per_version", median3(gc_ns));
  rep->num("storage_versions_per_key", versions_per_key);
  rep->num("wire_encode_ns_per_msg", median3(enc_ns));
  rep->num("wire_decode_ns_per_msg", median3(dec_ns));
  rep->num("replay_sink", static_cast<double>(sink & 1));
  return ok;
}

}  // namespace perfbench
