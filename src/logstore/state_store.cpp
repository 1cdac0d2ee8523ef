#include "logstore/state_store.h"

#include <utility>

#include "logstore/record.h"

namespace lingxi::logstore {
namespace {

void put_vec(codec::ByteWriter& out, const std::vector<double>& v) {
  out.u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) out.f64(x);
}

void get_vec(codec::ByteReader& in, std::vector<double>& v) {
  const std::uint32_t n = in.count(sizeof(double));
  if (n > 1024) in.fail();  // history vectors are capped at 8 in practice
  v.resize(in.ok() ? n : 0);
  for (auto& x : v) x = in.f64();
}

}  // namespace

void StateStore::put(std::uint64_t user_id, UserState state) {
  states_[user_id] = std::move(state);
}

std::optional<UserState> StateStore::get(std::uint64_t user_id) const {
  const auto it = states_.find(user_id);
  if (it == states_.end()) return std::nullopt;
  return it->second;
}

bool StateStore::contains(std::uint64_t user_id) const {
  return states_.find(user_id) != states_.end();
}

std::vector<unsigned char> StateStore::encode(std::uint64_t user_id, const UserState& state) {
  std::vector<unsigned char> p;
  codec::ByteWriter out(p);
  out.u64(user_id);
  put_vec(out, state.engagement.stall_durations);
  put_vec(out, state.engagement.stall_intervals);
  put_vec(out, state.engagement.stall_exit_intervals);
  out.f64(state.engagement.total_watch_time);
  out.u64(state.engagement.total_stall_events);
  out.u64(state.engagement.total_stall_exits);
  out.f64(state.best_params.stall_penalty);
  out.f64(state.best_params.switch_penalty);
  out.f64(state.best_params.hyb_beta);
  out.flag(state.has_params);
  return p;
}

Expected<std::pair<std::uint64_t, UserState>> StateStore::decode(codec::ByteSpan payload) {
  codec::ByteReader in(payload);
  const std::uint64_t user_id = in.u64();
  UserState s;
  get_vec(in, s.engagement.stall_durations);
  get_vec(in, s.engagement.stall_intervals);
  get_vec(in, s.engagement.stall_exit_intervals);
  s.engagement.total_watch_time = in.f64();
  s.engagement.total_stall_events = in.u64();
  s.engagement.total_stall_exits = in.u64();
  s.best_params.stall_penalty = in.f64();
  s.best_params.switch_penalty = in.f64();
  s.best_params.hyb_beta = in.f64();
  s.has_params = in.flag();
  if (!in.done()) return Error::corrupt("malformed user state payload");
  return std::make_pair(user_id, std::move(s));
}

Status StateStore::save(const std::string& path) const {
  std::vector<unsigned char> bytes;
  for (const auto& [id, state] : states_) {
    kRecordFrame.write(bytes, encode(id, state));
  }
  return write_file(path, bytes);
}

Status StateStore::load(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes) return bytes.error();
  std::map<std::uint64_t, UserState> loaded;
  codec::ByteReader in(*bytes);
  while (in.remaining() > 0) {
    auto payload = kRecordFrame.read(in);
    if (!payload) return payload.error();
    auto entry = StateStore::decode(*payload);
    if (!entry) return entry.error();
    loaded[entry->first] = std::move(entry->second);
  }
  states_ = std::move(loaded);
  return {};
}

}  // namespace lingxi::logstore
